// Package cmd_test builds the repository's binaries and smoke-tests their
// command-line surfaces end to end: tracegen → schedinspect train → eval →
// inspect → inspectord serving the trained model over HTTP.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildAll compiles every cmd/ binary once into a shared temp dir.
func buildAll(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"tracegen", "schedinspect", "inspectord", "expreport", "benchjson"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./"+name)
		cmd.Dir = mustSelfDir(t)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
	}
	return dir
}

// mustSelfDir returns the cmd/ directory (where this test file lives).
func mustSelfDir(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, buf.String())
	}
	return buf.String()
}

// TestBenchJSON pipes canned `go test -bench` output through benchjson and
// checks the emitted document.
func TestBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchjson")
	build := exec.Command("go", "build", "-o", bin, "./benchjson")
	build.Dir = mustSelfDir(t)
	if b, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build benchjson: %v\n%s", err, b)
	}
	out := filepath.Join(dir, "bench.json")
	cmd := exec.Command(bin, "-o", out)
	cmd.Stdin = strings.NewReader(`goos: linux
goarch: amd64
pkg: schedinspector
BenchmarkEnvStep-8   	   16825	     71833 ns/op	       362.8 ns/decision	       0 B/op	       0 allocs/op
BenchmarkSimulator 	    9423	    121741 ns/op
PASS
ok  	schedinspector	1.949s
`)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("benchjson: %v\n%s", err, b)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Benchmarks []struct {
			Name       string             `json:"name"`
			Procs      int                `json:"procs"`
			Iterations int64              `json:"iterations"`
			Metrics    map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, raw)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2:\n%s", len(rep.Benchmarks), raw)
	}
	env := rep.Benchmarks[0]
	if env.Name != "EnvStep" || env.Procs != 8 || env.Iterations != 16825 {
		t.Errorf("EnvStep parsed as %+v", env)
	}
	if env.Metrics["ns/decision"] != 362.8 || env.Metrics["allocs/op"] != 0 {
		t.Errorf("EnvStep metrics %+v", env.Metrics)
	}
	if sim := rep.Benchmarks[1]; sim.Name != "Simulator" || sim.Procs != 1 ||
		sim.Metrics["ns/op"] != 121741 {
		t.Errorf("Simulator parsed as %+v", sim)
	}
	// empty input is an error, not an empty document
	cmd = exec.Command(bin)
	cmd.Stdin = strings.NewReader("PASS\n")
	if err := cmd.Run(); err == nil {
		t.Error("benchjson accepted input with no benchmarks")
	}
}

// TestBenchJSONCheck exercises the regression-gate mode against a canned
// baseline: pass within tolerance, fail beyond it, fail on a new
// allocation where the baseline was allocation-free, fail on a missing
// benchmark.
func TestBenchJSONCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchjson")
	build := exec.Command("go", "build", "-o", bin, "./benchjson")
	build.Dir = mustSelfDir(t)
	if b, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build benchjson: %v\n%s", err, b)
	}
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, []byte(`{"benchmarks":[
		{"name":"EnvStep","procs":8,"iterations":10000,
		 "metrics":{"ns/op":1000,"allocs/op":0}},
		{"name":"Simulator","procs":8,"iterations":10000,
		 "metrics":{"ns/op":2000,"allocs/op":5}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	checkRun := func(stdin string) (string, error) {
		cmd := exec.Command(bin, "-check", baseline, "-tolerance", "0.25")
		cmd.Stdin = strings.NewReader(stdin)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = io.Discard
		err := cmd.Run()
		return buf.String(), err
	}

	// Within tolerance (+20% ns/op, allocs unchanged): pass.
	out, err := checkRun(`BenchmarkEnvStep-8   10000   1200 ns/op   0 allocs/op
BenchmarkSimulator-8   10000   2100 ns/op   5 allocs/op
PASS
`)
	if err != nil {
		t.Fatalf("within-tolerance run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ok   EnvStep") {
		t.Errorf("missing ok line:\n%s", out)
	}

	// Beyond tolerance: fail and say so.
	out, err = checkRun(`BenchmarkEnvStep-8   10000   1300 ns/op   0 allocs/op
BenchmarkSimulator-8   10000   2000 ns/op   5 allocs/op
`)
	if err == nil {
		t.Fatalf("+30%% regression accepted:\n%s", out)
	}
	if !strings.Contains(out, "FAIL EnvStep") {
		t.Errorf("regression not named:\n%s", out)
	}

	// New allocation on a 0-alloc baseline: fail even though ns/op is fine.
	out, err = checkRun(`BenchmarkEnvStep-8   10000   1000 ns/op   2 allocs/op
BenchmarkSimulator-8   10000   2000 ns/op   5 allocs/op
`)
	if err == nil {
		t.Fatalf("new allocation accepted:\n%s", out)
	}
	if !strings.Contains(out, "allocation-free") {
		t.Errorf("allocation failure not explained:\n%s", out)
	}

	// Baseline benchmark missing from the run: fail.
	out, err = checkRun(`BenchmarkEnvStep-8   10000   1000 ns/op   0 allocs/op
`)
	if err == nil {
		t.Fatalf("missing benchmark accepted:\n%s", out)
	}
	if !strings.Contains(out, "FAIL Simulator") {
		t.Errorf("missing benchmark not named:\n%s", out)
	}
}

// TestCLICheckpointResume pins the CLI half of the kill-and-resume
// guarantee: a run trained straight to N epochs and a run trained to N/2,
// stopped, and resumed with -resume produce byte-identical model files.
func TestCLICheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test skipped in -short mode")
	}
	bins := buildAll(t)
	work := t.TempDir()
	swf := filepath.Join(work, "trace.swf.gz")
	run(t, filepath.Join(bins, "tracegen"), "-trace", "SDSC-SP2", "-jobs", "3000", "-o", swf)

	common := []string{"train", "-swf", swf, "-policy", "SJF", "-metric", "bsld",
		"-batch", "4", "-seqlen", "64", "-seed", "42"}
	modelA := filepath.Join(work, "straight.ckpt")
	run(t, filepath.Join(bins, "schedinspect"),
		append(common, "-epochs", "4", "-model", modelA)...)

	// Half the epochs, checkpointing every epoch, then resume to the target.
	ckdir := filepath.Join(work, "ckpts")
	modelB := filepath.Join(work, "resumed.ckpt")
	run(t, filepath.Join(bins, "schedinspect"),
		append(common, "-epochs", "2", "-checkpoint-dir", ckdir, "-checkpoint-every", "1",
			"-model", filepath.Join(work, "half.ckpt"))...)
	out := run(t, filepath.Join(bins, "schedinspect"),
		append(common, "-epochs", "4", "-checkpoint-dir", ckdir, "-resume", "-model", modelB)...)
	if !strings.Contains(out, "resumed from checkpoint at epoch 2") {
		t.Fatalf("resume not reported:\n%s", out)
	}

	a, err := os.ReadFile(modelA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(modelB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("resumed model bytes differ from the uninterrupted run")
	}

	// A model file and a checkpoint are one format: eval reads either, and
	// the final checkpoint holds the saved model's weights.
	evalArgs := []string{"eval", "-swf", swf, "-policy", "SJF", "-metric", "bsld",
		"-sequences", "4", "-seqlen", "64", "-seed", "42", "-model"}
	fromModel := run(t, filepath.Join(bins, "schedinspect"), append(evalArgs, modelB)...)
	fromCkpt := run(t, filepath.Join(bins, "schedinspect"), append(evalArgs, filepath.Join(ckdir, "ckpt-00000004.ckpt"))...)
	if fromModel != fromCkpt || !strings.Contains(fromCkpt, "mean improvement") {
		t.Errorf("eval of the model file and of its checkpoint differ:\n%s\nvs\n%s", fromModel, fromCkpt)
	}

	// A checkpoint-keep sweep ran: only the retained files remain, all
	// named ckpt-*.ckpt.
	des, err := os.ReadDir(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) == 0 || len(des) > 3 {
		t.Errorf("checkpoint dir holds %d files, want 1..3 (keep default 3)", len(des))
	}
	for _, de := range des {
		if !strings.HasPrefix(de.Name(), "ckpt-") || !strings.HasSuffix(de.Name(), ".ckpt") {
			t.Errorf("unexpected file %s in checkpoint dir", de.Name())
		}
	}

	// -resume without -checkpoint-dir is refused.
	cmd := exec.Command(filepath.Join(bins, "schedinspect"),
		append(common, "-epochs", "4", "-resume", "-model", modelB)...)
	if err := cmd.Run(); err == nil {
		t.Error("-resume without -checkpoint-dir accepted")
	}
}

// TestCLIServeCheckpointHotSwap serves a raw training checkpoint with
// inspectord and exercises both reload triggers (admin endpoint, SIGHUP)
// plus the failure path: a corrupt file on disk must leave the current
// model serving.
func TestCLIServeCheckpointHotSwap(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test skipped in -short mode")
	}
	bins := buildAll(t)
	work := t.TempDir()
	swf := filepath.Join(work, "trace.swf.gz")
	run(t, filepath.Join(bins, "tracegen"), "-trace", "SDSC-SP2", "-jobs", "2000", "-o", swf)

	ckdir := filepath.Join(work, "ckpts")
	run(t, filepath.Join(bins, "schedinspect"), "train",
		"-swf", swf, "-policy", "SJF", "-metric", "bsld",
		"-epochs", "1", "-batch", "4", "-seqlen", "64", "-seed", "42",
		"-checkpoint-dir", ckdir, "-model", filepath.Join(work, "model.ckpt"))
	des, err := os.ReadDir(ckdir)
	if err != nil || len(des) == 0 {
		t.Fatalf("no checkpoint written: %v", err)
	}
	ckfile := filepath.Join(ckdir, des[len(des)-1].Name())

	const addr = "127.0.0.1:18643"
	var srvLog bytes.Buffer
	srv := exec.Command(filepath.Join(bins, "inspectord"),
		"-model", ckfile, "-addr", addr, "-seed", "7")
	srv.Stderr = &srvLog
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get("http://" + addr + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("inspectord never came up serving a checkpoint: %v\n%s", err, srvLog.String())
	}
	resp.Body.Close()

	// Admin-triggered reload re-reads the checkpoint and bumps generation.
	resp, err = http.Post("http://"+addr+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rl struct {
		Generation int `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rl.Generation != 2 {
		t.Fatalf("admin reload: status %d, generation %d, want 200/2", resp.StatusCode, rl.Generation)
	}

	// SIGHUP triggers the same swap.
	if err := srv.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	if !pollMetrics(t, addr, "schedinspector_model_reloads_total 2") {
		t.Fatalf("SIGHUP reload not recorded\n%s", srvLog.String())
	}

	// A corrupt file on disk: reload fails, the old model keeps serving.
	if err := os.WriteFile(ckfile, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post("http://"+addr+"/v1/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt reload status %d, want 500", resp.StatusCode)
	}
	if !pollMetrics(t, addr, "schedinspector_model_load_failures_total 1") {
		t.Fatalf("load failure not recorded\n%s", srvLog.String())
	}
	body := `{"job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":128}`
	resp, err = http.Post("http://"+addr+"/v1/inspect", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inspect after failed reload: status %d", resp.StatusCode)
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- srv.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("inspectord exit after SIGTERM: %v\n%s", err, srvLog.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("inspectord did not exit after SIGTERM\n%s", srvLog.String())
	}
}

// pollMetrics waits for the /metrics page to contain want.
func pollMetrics(t *testing.T, addr, want string) bool {
	t.Helper()
	for i := 0; i < 50; i++ {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(b), want) {
				return true
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return false
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test skipped in -short mode")
	}
	bins := buildAll(t)
	work := t.TempDir()
	swf := filepath.Join(work, "trace.swf.gz")
	model := filepath.Join(work, "model.ckpt")

	// tracegen: emit a small gzipped SWF trace.
	out := run(t, filepath.Join(bins, "tracegen"), "-trace", "SDSC-SP2", "-jobs", "3000", "-o", swf)
	if _, err := os.Stat(swf); err != nil {
		t.Fatalf("tracegen produced no file: %v\n%s", err, out)
	}

	// schedinspect stats on the generated file.
	out = run(t, filepath.Join(bins, "schedinspect"), "stats", "-swf", swf)
	if !strings.Contains(out, "3000 jobs") || !strings.Contains(out, "cluster 128") {
		t.Fatalf("stats output unexpected:\n%s", out)
	}

	// train a tiny model on the SWF trace, with telemetry.
	telemetry := filepath.Join(work, "telemetry.csv")
	out = run(t, filepath.Join(bins, "schedinspect"), "train",
		"-swf", swf, "-policy", "SJF", "-metric", "bsld",
		"-epochs", "2", "-batch", "4", "-seqlen", "64", "-model", model,
		"-telemetry", telemetry)
	if !strings.Contains(out, "model saved") {
		t.Fatalf("train did not save:\n%s", out)
	}
	tele, err := os.ReadFile(telemetry)
	if err != nil {
		t.Fatalf("telemetry file: %v", err)
	}
	if head := strings.SplitN(string(tele), "\n", 2)[0]; !strings.Contains(head, "entropy") ||
		!strings.Contains(head, "approx_kl") || !strings.Contains(head, "mean_reward") ||
		!strings.Contains(head, "policy_loss") {
		t.Fatalf("telemetry header missing columns: %q", head)
	}
	if lines := strings.Count(strings.TrimSpace(string(tele)), "\n"); lines != 2 {
		t.Fatalf("telemetry rows %d, want 2 epochs + header:\n%s", lines, tele)
	}

	// expreport plots learning curves from the telemetry file.
	out = run(t, filepath.Join(bins, "expreport"), "-curves", telemetry)
	if !strings.Contains(out, "mean_reward") || !strings.Contains(out, "2 epochs") {
		t.Fatalf("expreport -curves unexpected:\n%s", out)
	}

	// evaluate the model.
	out = run(t, filepath.Join(bins, "schedinspect"), "eval",
		"-swf", swf, "-policy", "SJF", "-metric", "bsld",
		"-sequences", "3", "-seqlen", "64", "-model", model)
	if !strings.Contains(out, "mean improvement") {
		t.Fatalf("eval output unexpected:\n%s", out)
	}

	// §5 analysis over the trace.
	out = run(t, filepath.Join(bins, "schedinspect"), "inspect",
		"-swf", swf, "-policy", "SJF", "-model", model)
	if !strings.Contains(out, "queue_delays") {
		t.Fatalf("inspect output unexpected:\n%s", out)
	}

	// expreport: list and one tiny experiment.
	out = run(t, filepath.Join(bins, "expreport"), "-list")
	if !strings.Contains(out, "fig13") || !strings.Contains(out, "rlsched") {
		t.Fatalf("expreport -list unexpected:\n%s", out)
	}
	out = run(t, filepath.Join(bins, "expreport"), "-tiny", "-exp", "table1")
	if !strings.Contains(out, "Case(b)-Inspected") {
		t.Fatalf("expreport table1 unexpected:\n%s", out)
	}

	// inspectord: serve the trained model and query it. -seed is explicit
	// here; the effective seed is also logged at startup either way.
	var srvLog bytes.Buffer
	srv := exec.Command(filepath.Join(bins, "inspectord"),
		"-model", model, "-addr", "127.0.0.1:18642", "-seed", "7")
	srv.Stderr = &srvLog
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get("http://127.0.0.1:18642/healthz")
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("inspectord never came up: %v", err)
	}
	var info struct {
		FeatureMode string `json:"feature_mode"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.FeatureMode != "manual" {
		t.Fatalf("served model info: %+v", info)
	}
	body := `{"job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":128}`
	resp, err = http.Post("http://127.0.0.1:18642/v1/inspect", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var verdict struct {
		RejectProb float64 `json:"reject_prob"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&verdict); err != nil {
		t.Fatal(err)
	}
	if verdict.RejectProb < 0 || verdict.RejectProb > 1 {
		t.Fatalf("reject prob %v", verdict.RejectProb)
	}

	// /v1/simulate: a what-if schedule driven by the served model.
	simBody := `{"policy":"SJF","backfill":true,"max_procs":64,"inspector":"greedy",
		"jobs":[{"submit":0,"run":600,"est":900,"procs":48},
		        {"submit":10,"run":300,"est":400,"procs":32},
		        {"submit":20,"run":100,"est":120,"procs":8}]}`
	resp, err = http.Post("http://127.0.0.1:18642/v1/simulate", "application/json", strings.NewReader(simBody))
	if err != nil {
		t.Fatal(err)
	}
	var simResp struct {
		Jobs        int     `json:"jobs"`
		Inspections int     `json:"inspections"`
		Makespan    float64 `json:"makespan"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&simResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if simResp.Jobs != 3 || simResp.Makespan <= 0 {
		t.Fatalf("simulate response unexpected: %+v", simResp)
	}

	// /metrics reflects the traffic served so far.
	resp, err = http.Get("http://127.0.0.1:18642/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	prom := string(promBytes)
	for _, want := range []string{
		"# TYPE schedinspector_http_requests_total counter",
		`schedinspector_http_requests_total{code="200",route="/v1/inspect"} 1`,
		"# TYPE schedinspector_http_request_duration_seconds histogram",
		"schedinspector_inspect_reject_ratio",
		"schedinspector_inspect_decisions_total",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}

	// Graceful shutdown: SIGTERM drains and exits cleanly.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- srv.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("inspectord exit after SIGTERM: %v\n%s", err, srvLog.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("inspectord did not exit after SIGTERM\n%s", srvLog.String())
	}
	logOut := srvLog.String()
	if !strings.Contains(logOut, "decision-sampling seed 7") {
		t.Errorf("effective seed not logged:\n%s", logOut)
	}
	if !strings.Contains(logOut, "stopped") {
		t.Errorf("graceful shutdown not logged:\n%s", logOut)
	}
}

// TestCLIFlightRecorder smoke-tests the decision flight recorder end to
// end: train with -flight, query the trace with schedinspect explain,
// plot it with expreport -rejects, and read back served decisions from
// inspectord's /v1/explain/last. The -workers 1 vs -workers 4 runs must
// produce identical feature-stats — the explain records are keyed by
// stable (epoch, trajectory, sequence) IDs, not by execution order.
func TestCLIFlightRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test skipped in -short mode")
	}
	bins := buildAll(t)
	work := t.TempDir()
	swf := filepath.Join(work, "trace.swf.gz")
	model := filepath.Join(work, "model.ckpt")
	run(t, filepath.Join(bins, "tracegen"), "-trace", "SDSC-SP2", "-jobs", "3000", "-o", swf)

	common := []string{"train", "-swf", swf, "-policy", "SJF", "-metric", "bsld",
		"-epochs", "2", "-batch", "4", "-seqlen", "64", "-seed", "42"}
	flight1 := filepath.Join(work, "flight-w1.ftrace")
	flight4 := filepath.Join(work, "flight-w4.ftrace")
	out := run(t, filepath.Join(bins, "schedinspect"),
		append(common, "-workers", "1", "-flight", flight1, "-model", model)...)
	if !strings.Contains(out, "flight trace written") {
		t.Fatalf("flight trace not reported:\n%s", out)
	}
	run(t, filepath.Join(bins, "schedinspect"),
		append(common, "-workers", "4", "-flight", flight4, "-model", filepath.Join(work, "m4.ckpt"))...)

	// Default summary names the trace contents.
	out = run(t, filepath.Join(bins, "schedinspect"), "explain", "-in", flight1)
	if !strings.Contains(out, "decisions") || !strings.Contains(out, "manual features") {
		t.Fatalf("explain summary unexpected:\n%s", out)
	}

	// Native feature mode (102 features) records too: its records and header
	// outgrow the ring's initial slots, which used to drop every one of them
	// while the command still reported success.
	flightNative := filepath.Join(work, "flight-native.ftrace")
	run(t, filepath.Join(bins, "schedinspect"), "train", "-swf", swf, "-epochs", "1", "-batch", "2",
		"-seqlen", "32", "-seed", "42", "-features", "native", "-flight", flightNative,
		"-model", filepath.Join(work, "native.ckpt"))
	out = run(t, filepath.Join(bins, "schedinspect"), "explain", "-in", flightNative)
	if strings.Contains(out, ": 0 decisions") || !strings.Contains(out, "native features") {
		t.Fatalf("native-mode flight trace is empty or headerless:\n%s", out)
	}

	// Worker-count independence, through the whole CLI pipeline: the
	// reject-attribution tables from the two runs are byte-identical.
	stats1 := run(t, filepath.Join(bins, "schedinspect"), "explain", "-in", flight1, "-feature-stats")
	stats4 := run(t, filepath.Join(bins, "schedinspect"), "explain", "-in", flight4, "-feature-stats")
	if stats1 != stats4 {
		t.Fatalf("feature-stats differ across worker counts:\n-- workers=1:\n%s\n-- workers=4:\n%s", stats1, stats4)
	}
	if !strings.Contains(stats1, "mean(accept)") || !strings.Contains(stats1, "queue_delays") {
		t.Fatalf("feature-stats output unexpected:\n%s", stats1)
	}

	// And re-running the same query is deterministic.
	if again := run(t, filepath.Join(bins, "schedinspect"), "explain", "-in", flight1, "-feature-stats"); again != stats1 {
		t.Fatal("explain -feature-stats not deterministic across invocations")
	}

	// Top-rejected and window queries produce their tables.
	out = run(t, filepath.Join(bins, "schedinspect"), "explain", "-in", flight1, "-top-rejected", "5")
	if !strings.Contains(out, "rejects") {
		t.Fatalf("top-rejected output unexpected:\n%s", out)
	}
	out = run(t, filepath.Join(bins, "schedinspect"), "explain", "-in", flight1, "-window", "0:1e12")
	if !strings.Contains(out, "verdict") {
		t.Fatalf("window output unexpected:\n%s", out)
	}

	// expreport -rejects plots the reject-rate-vs-utilization curve.
	out = run(t, filepath.Join(bins, "expreport"), "-rejects", flight1)
	if !strings.Contains(out, "reject rate vs utilization") || !strings.Contains(out, "0.9-1.0") {
		t.Fatalf("expreport -rejects unexpected:\n%s", out)
	}

	// version subcommand reports the stamped build identity.
	out = run(t, filepath.Join(bins, "schedinspect"), "version")
	if !strings.Contains(out, "schedinspect") || !strings.Contains(out, "go1.") {
		t.Fatalf("version output unexpected:\n%s", out)
	}

	// inspectord: served decisions land in /v1/explain/last, and /metrics
	// carries build_info plus the runtime self-profiling gauges.
	const addr = "127.0.0.1:18644"
	var srvLog bytes.Buffer
	srv := exec.Command(filepath.Join(bins, "inspectord"),
		"-model", model, "-addr", addr, "-seed", "7", "-proc-interval", "50ms")
	srv.Stderr = &srvLog
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()
	var (
		resp *http.Response
		err  error
	)
	for i := 0; i < 50; i++ {
		resp, err = http.Get("http://" + addr + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("inspectord never came up: %v\n%s", err, srvLog.String())
	}
	resp.Body.Close()

	body := `{"job":{"wait":120,"est":3600,"procs":16},"free_procs":32,"total_procs":128}`
	for i := 0; i < 3; i++ {
		resp, err = http.Post("http://"+addr+"/v1/inspect", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err = http.Get("http://" + addr + "/v1/explain/last?n=2")
	if err != nil {
		t.Fatal(err)
	}
	var last struct {
		Total        int      `json:"total"`
		FeatureNames []string `json:"feature_names"`
		Records      []struct {
			Seq      int  `json:"seq"`
			Sampled  bool `json:"sampled"`
			Rejected bool `json:"rejected"`
		} `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&last); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if last.Total != 3 || len(last.Records) != 2 || len(last.FeatureNames) == 0 {
		t.Fatalf("/v1/explain/last: %+v", last)
	}
	if last.Records[1].Seq != 2 || !last.Records[1].Sampled {
		t.Fatalf("/v1/explain/last records: %+v", last.Records)
	}

	if !pollMetrics(t, addr, "schedinspector_build_info") {
		t.Fatalf("build_info missing from /metrics\n%s", srvLog.String())
	}
	if !pollMetrics(t, addr, "schedinspector_goroutines") {
		t.Fatalf("proc sampler gauges missing from /metrics\n%s", srvLog.String())
	}
	srv.Process.Signal(syscall.SIGTERM)
	srv.Wait()
}
