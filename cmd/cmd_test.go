// Package cmd_test builds the repository's binaries once and drives them as
// processes end to end: tracegen → schedinspect train → eval → inspect →
// inspectord serving the trained model over HTTP, train-worker meshes
// against single-process training, and inspectord's online loop watched by
// a fleet daemon. Every test skips under -short.
package cmd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"schedinspector/internal/fleet"
	"schedinspector/internal/online"
)

var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// bin returns the path of the named cmd/ binary. The first call of the test
// process builds them all; under -short it skips the test instead.
func bin(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("process test skipped in -short mode")
	}
	binOnce.Do(func() {
		// A child go build compiles the binaries, so the test cache cannot
		// see their sources; stat them here so an edit invalidates a cached
		// pass instead of replaying it.
		binErr = filepath.WalkDir("..", func(path string, de fs.DirEntry, err error) error {
			if err == nil && de.IsDir() && path != ".." && strings.HasPrefix(de.Name(), ".") {
				return filepath.SkipDir
			}
			if err == nil && strings.HasSuffix(path, ".go") {
				_, err = os.Stat(path)
			}
			return err
		})
		if binErr != nil {
			return
		}
		if binDir, binErr = os.MkdirTemp("", "cmdtest"); binErr != nil {
			return
		}
		build := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator),
			"./tracegen", "./schedinspect", "./inspectord", "./expreport")
		if out, err := build.CombinedOutput(); err != nil {
			binErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return filepath.Join(binDir, name)
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// train returns the arguments of the small schedinspect training run (sub
// is train or train-worker) the process tests share.
func train(sub string, epochs int, more ...string) []string {
	return append([]string{sub, "-trace", "SDSC-SP2", "-jobs", "2000", "-epochs", strconv.Itoa(epochs),
		"-batch", "4", "-seqlen", "64", "-seed", "42"}, more...)
}

// syncBuffer is a bytes.Buffer a running process writes while the test
// reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemon is one long-running binary under test.
type daemon struct {
	cmd    *exec.Cmd
	out    syncBuffer // stdout and stderr
	addr   string     // the loopback address it bound and logged
	status string     // JSON path logged with its output if the test fails
	exited chan struct{}
	err    error // cmd.Wait's result once exited is closed
}

// announced matches the first loopback address with a real port in a
// daemon's log: the one it bound for a 127.0.0.1:0 flag.
var announced = regexp.MustCompile(`127\.0\.0\.1:[1-9][0-9]*`)

// start runs bin, which must bind 127.0.0.1:0 and log the address it got,
// and returns once that address answers ready with 200. The daemon is
// killed when the test ends; if the test failed, its output and its status
// body are logged first.
func start(t *testing.T, ready, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.Stdout, d.cmd.Stderr = &d.out, &d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.exited) }()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.exited
	})
	t.Cleanup(func() { // runs before the kill
		if !t.Failed() {
			return
		}
		t.Logf("--- %s %v:\n%s", filepath.Base(bin), args, d.out.String())
		if d.status != "" {
			var body json.RawMessage
			err := getJSON(d.url(d.status), &body)
			t.Logf("--- %s (%v):\n%s", d.status, err, body)
		}
	})
	poll(t, 30*time.Second, func() error {
		select {
		case <-d.exited:
			t.Fatalf("%s exited before it was ready: %v\n%s", filepath.Base(bin), d.err, d.out.String())
		default:
		}
		if d.addr = announced.FindString(d.out.String()); d.addr == "" {
			return errors.New(filepath.Base(bin) + " has not logged its address")
		}
		return getJSON(d.url(ready), nil)
	})
	return d
}

// inspectord starts the serving daemon on a port of its own choosing.
func inspectord(t *testing.T, args ...string) *daemon {
	t.Helper()
	return start(t, "/healthz", bin(t, "inspectord"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// stop sends SIGTERM and returns the daemon's exit error.
func (d *daemon) stop(t *testing.T) error {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(15 * time.Second):
		t.Fatalf("did not exit after SIGTERM\n%s", d.out.String())
		return nil
	}
}

// poll calls try until it returns nil, failing the test with its last
// error once timeout has passed.
func poll(t *testing.T, timeout time.Duration, try func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		err := try()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %v: %v", timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// client bounds every request a test makes, so a hung daemon fails the test
// instead of stalling it.
var client = &http.Client{Timeout: 10 * time.Second}

// getJSON decodes the 200 body of a GET of url into v; a nil v checks the
// status only.
func getJSON(url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// inspect posts one seeded /v1/inspect body and returns the verdict's
// reject probability; the answer must be a 200 carrying reject and
// reject_prob.
func inspect(t *testing.T, d *daemon, rng *rand.Rand) float64 {
	t.Helper()
	body := fmt.Sprintf(`{"job":{"wait":%d,"est":%d,"procs":%d},"free_procs":%d,"total_procs":128,`+
		`"queue":[{"wait":%d,"est":600,"procs":%d}]}`,
		rng.Intn(3600), 60+rng.Intn(7200), 1+rng.Intn(32), rng.Intn(129), rng.Intn(600), 1+rng.Intn(8))
	resp, err := client.Post(d.url("/v1/inspect"), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	defer resp.Body.Close()
	var v struct {
		Reject     *bool    `json:"reject"`
		RejectProb *float64 `json:"reject_prob"`
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	if resp.StatusCode != http.StatusOK || err != nil || v.Reject == nil || v.RejectProb == nil {
		t.Fatalf("inspect: status %d, decode %v, reject set %v, reject_prob set %v",
			resp.StatusCode, err, v.Reject != nil, v.RejectProb != nil)
	}
	return *v.RejectProb
}

// scrape parses d's /metrics with the fleet plane's own parser.
func scrape(t *testing.T, d *daemon) *fleet.Scrape {
	t.Helper()
	s, err := (&fleet.Client{HTTP: client}).Scrape(context.Background(), d.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// series returns the value of family's one series whose labels include the
// name/value pairs given.
func series(s *fleet.Scrape, family string, labels ...string) (float64, error) {
	var found []float64
	if f := s.Family(family); f != nil {
	samples:
		for _, sm := range f.Samples {
			for i := 0; i+1 < len(labels); i += 2 {
				if sm.Labels[labels[i]] != labels[i+1] {
					continue samples
				}
			}
			found = append(found, sm.Value)
		}
	}
	if len(found) != 1 {
		return 0, fmt.Errorf("%s%v: %d matching series, want 1", family, labels, len(found))
	}
	return found[0], nil
}

// waitMetric polls d's /metrics until family's one series reads want.
func waitMetric(t *testing.T, d *daemon, family string, want float64) {
	t.Helper()
	poll(t, 10*time.Second, func() error {
		v, err := series(scrape(t, d), family)
		if err == nil && v != want {
			err = fmt.Errorf("%s = %v, want %v", family, v, want)
		}
		return err
	})
}

// TestCLICheckpointResume pins the CLI half of the kill-and-resume
// guarantee: a run trained straight to N epochs and a run trained to N/2,
// stopped, and resumed with -resume produce byte-identical model files.
func TestCLICheckpointResume(t *testing.T) {
	si := bin(t, "schedinspect")
	work := t.TempDir()
	swf := filepath.Join(work, "trace.swf.gz")
	run(t, bin(t, "tracegen"), "-trace", "SDSC-SP2", "-jobs", "3000", "-o", swf)

	common := []string{"train", "-swf", swf, "-policy", "SJF", "-metric", "bsld",
		"-batch", "4", "-seqlen", "64", "-seed", "42"}
	modelA := filepath.Join(work, "straight.ckpt")
	run(t, si, append(common, "-epochs", "4", "-model", modelA)...)

	// Half the epochs, checkpointing every epoch, then resume to the target.
	ckdir := filepath.Join(work, "ckpts")
	modelB := filepath.Join(work, "resumed.ckpt")
	run(t, si, append(common, "-epochs", "2", "-checkpoint-dir", ckdir, "-checkpoint-every", "1",
		"-model", filepath.Join(work, "half.ckpt"))...)
	out := run(t, si, append(common, "-epochs", "4", "-checkpoint-dir", ckdir, "-resume", "-model", modelB)...)
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
	fromModel := run(t, si, append(evalArgs, modelB)...)
	fromCkpt := run(t, si, append(evalArgs, filepath.Join(ckdir, "ckpt-00000004.ckpt"))...)
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
	cmd := exec.Command(si, append(common, "-epochs", "4", "-resume", "-model", modelB)...)
	if err := cmd.Run(); err == nil {
		t.Error("-resume without -checkpoint-dir accepted")
	}
}

// TestCLIServeCheckpointHotSwap serves a raw training checkpoint with
// inspectord and exercises both reload triggers (admin endpoint, SIGHUP)
// plus the failure path: a corrupt file on disk must leave the current
// model serving.
func TestCLIServeCheckpointHotSwap(t *testing.T) {
	si := bin(t, "schedinspect")
	work := t.TempDir()
	swf := filepath.Join(work, "trace.swf.gz")
	run(t, bin(t, "tracegen"), "-trace", "SDSC-SP2", "-jobs", "2000", "-o", swf)

	ckdir := filepath.Join(work, "ckpts")
	run(t, si, "train", "-swf", swf, "-policy", "SJF", "-metric", "bsld",
		"-epochs", "1", "-batch", "4", "-seqlen", "64", "-seed", "42",
		"-checkpoint-dir", ckdir, "-model", filepath.Join(work, "model.ckpt"))
	des, err := os.ReadDir(ckdir)
	if err != nil || len(des) == 0 {
		t.Fatalf("no checkpoint written: %v", err)
	}
	ckfile := filepath.Join(ckdir, des[len(des)-1].Name())

	d := inspectord(t, "-model", ckfile, "-seed", "7")

	// Admin-triggered reload re-reads the checkpoint and bumps generation.
	resp, err := client.Post(d.url("/v1/admin/reload"), "application/json", nil)
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
	if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitMetric(t, d, "schedinspector_model_reloads_total", 2)

	// A corrupt file on disk: reload fails, the old model keeps serving.
	if err := os.WriteFile(ckfile, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Post(d.url("/v1/admin/reload"), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt reload status %d, want 500", resp.StatusCode)
	}
	waitMetric(t, d, "schedinspector_model_load_failures_total", 1)
	inspect(t, d, rand.New(rand.NewSource(1)))

	if err := d.stop(t); err != nil {
		t.Fatalf("inspectord exit after SIGTERM: %v", err)
	}
}

// TestCLIInspectordPortTaken holds inspectord's port: the daemon must exit
// non-zero without ever logging that it serves.
func TestCLIInspectordPortTaken(t *testing.T) {
	model := filepath.Join(t.TempDir(), "model.ckpt")
	run(t, bin(t, "schedinspect"), train("train", 1, "-model", model)...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out, err := exec.Command(bin(t, "inspectord"), "-model", model, "-addr", ln.Addr().String()).CombinedOutput()
	if err == nil || strings.Contains(string(out), "serving") {
		t.Fatalf("inspectord on a taken port (%v):\n%s", err, out)
	}
}

// TestCLIInspectordFlightRotation serves with a 1 MiB -flight bound and
// sends enough deep inspects to rotate. After SIGTERM both generations read
// alone with schedinspect explain; a restart on the same path keeps the
// previous run as FILE.1; the deleted -audit flag is a usage error.
func TestCLIInspectordFlightRotation(t *testing.T) {
	si := bin(t, "schedinspect")
	work := t.TempDir()
	model := filepath.Join(work, "model.ckpt")
	run(t, si, train("train", 1, "-model", model)...)
	flight := filepath.Join(work, "flight.ftrace")

	queue := strings.Repeat(`{"wait":60,"est":600,"procs":4},`, 159) + `{"wait":5,"est":60,"procs":1}`
	post := func(d *daemon, i int) {
		body := fmt.Sprintf(`{"job":{"wait":%d,"est":3600,"procs":16},"free_procs":32,"total_procs":128,"queue":[%s]}`, i, queue)
		resp, err := client.Post(d.url("/v1/inspect"), "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("inspect %d: status %d", i, resp.StatusCode)
		}
	}
	summary := regexp.MustCompile(`: ([1-9][0-9]*) decisions \(.*, manual features`)
	explainBoth := func() {
		t.Helper()
		for _, f := range []string{flight, flight + ".1"} {
			if out := run(t, si, "explain", "-in", f); !summary.MatchString(out) {
				t.Fatalf("explain -in %s does not read alone:\n%s", f, out)
			}
		}
	}

	d := inspectord(t, "-model", model, "-seed", "7", "-flight", flight, "-flight-max-mb", "1")
	const clients = 4
	var sent atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Until the first rotation, then a few more for the new file.
			for extra := 0; extra < 25 && !t.Failed(); {
				post(d, int(sent.Add(1)))
				if _, err := os.Stat(flight + ".1"); err == nil {
					extra++
				} else if n := sent.Load(); n > 20000 {
					t.Errorf("no rotation after %d decisions", n)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := d.stop(t); err != nil {
		t.Fatalf("inspectord exit after SIGTERM: %v", err)
	}
	explainBoth()

	// A restart moves the last run's newest file aside instead of truncating it.
	last, err := os.ReadFile(flight)
	if err != nil {
		t.Fatal(err)
	}
	d = inspectord(t, "-model", model, "-seed", "7", "-flight", flight, "-flight-max-mb", "1")
	post(d, 0)
	if err := d.stop(t); err != nil {
		t.Fatalf("restarted inspectord exit after SIGTERM: %v", err)
	}
	if prev, err := os.ReadFile(flight + ".1"); err != nil || !bytes.Equal(prev, last) {
		t.Fatalf("after a restart %s.1 is not the previous run's file (%v)", flight, err)
	}
	explainBoth()

	err = exec.Command(bin(t, "inspectord"), "-model", model, "-audit", filepath.Join(work, "audit.jsonl")).Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
		t.Fatalf("inspectord -audit: %v, want exit status 2", err)
	}
}

// TestCLIBadTraceFlags feeds both trace-building binaries values they
// cannot generate from, and the training front-ends negative epoch and
// checkpoint counts: each must exit non-zero with an error naming the
// trace or the flag, never with a panic or a silent "never"/"keep all".
// The training cases are small, so a binary that accepted the value would
// finish quickly and fail the test.
func TestCLIBadTraceFlags(t *testing.T) {
	si, tg := bin(t, "schedinspect"), bin(t, "tracegen")
	work := t.TempDir()
	small := func(sub string, bad ...string) []string {
		return append([]string{sub, "-jobs", "800", "-batch", "2", "-seqlen", "32",
			"-model", filepath.Join(work, "model.ckpt"), "-checkpoint-dir", work}, bad...)
	}
	for _, c := range []struct {
		bin  string
		args []string
		want string
	}{
		{si, small("train", "-epochs", "-3"), "-epochs"},
		{si, small("train-worker", "-world", "1", "-epochs", "-1"), "-epochs"},
		{si, small("train", "-epochs", "1", "-checkpoint-every", "-1"), "-checkpoint-every"},
		{si, small("train", "-epochs", "1", "-checkpoint-keep", "-2"), "-checkpoint-keep"},
		{si, []string{"stats", "-trace", "Foo"}, "Foo"},
		{si, []string{"train", "-trace", "Foo"}, "Foo"},
		{si, []string{"eval", "-trace", "Foo"}, "Foo"},
		{si, []string{"inspect", "-trace", "Foo"}, "Foo"},
		{si, []string{"stats", "-jobs", "-3"}, "jobs"},
		{si, []string{"train", "-jobs", "-3"}, "jobs"},
		{tg, []string{"-trace", "Foo"}, "Foo"},
		{tg, []string{"-jobs", "-5"}, "jobs"},
		{tg, []string{"-custom", "-jobs", "-5"}, "-jobs"},
		{tg, []string{"-custom", "-procs", "-4"}, "-procs"},
		{tg, []string{"-custom", "-interval", "-1"}, "-interval"},
		{tg, []string{"-custom", "-est", "0"}, "-est"},
		{tg, []string{"-custom", "-res", "-2"}, "-res"},
	} {
		cmd := exec.Command(c.bin, c.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		out := stdout.String() + stderr.String()
		if err == nil || !strings.Contains(stderr.String(), c.want) ||
			strings.Contains(out, "panic:") || strings.Contains(out, "goroutine ") {
			t.Errorf("%s %v: %v; want a non-zero exit, %q on stderr and no panic; output:\n%s",
				filepath.Base(c.bin), c.args, err, c.want, out)
		}
	}
}

// TestCLIEvalHeader: eval's header names the sequence count and length
// that ran, after EvalConfig's defaults, not the raw flag values.
func TestCLIEvalHeader(t *testing.T) {
	si := bin(t, "schedinspect")
	model := filepath.Join(t.TempDir(), "model.ckpt")
	run(t, si, "train", "-jobs", "3000", "-epochs", "0", "-model", model)
	for _, c := range []struct {
		seqs, seqLen, header, box string
	}{
		{"0", "16", "over 50 sequences of 16 jobs", "n=50 "},
		{"3", "0", "over 3 sequences of 256 jobs", "n=3 "},
		{"2", "32", "over 2 sequences of 32 jobs", "n=2 "},
	} {
		out := run(t, si, "eval", "-jobs", "3000", "-sequences", c.seqs, "-seqlen", c.seqLen, "-model", model)
		if !strings.Contains(out, c.header) || !strings.Contains(out, c.box) {
			t.Errorf("eval -sequences %s -seqlen %s: want %q and %q in\n%s", c.seqs, c.seqLen, c.header, c.box, out)
		}
	}
}

// TestCLIInspectFeatureLabels pins that schedinspect inspect labels each
// feature by the name the model's mode gives it: a compacted model's five
// features include free_nodes and runnable, and none of the manual-only
// rejected_times or queue_delays.
func TestCLIInspectFeatureLabels(t *testing.T) {
	si := bin(t, "schedinspect")
	model := filepath.Join(t.TempDir(), "compacted.ckpt")
	run(t, si, train("train", 1, "-features", "compacted", "-model", model)...)
	out := run(t, si, "inspect", "-jobs", "2000", "-model", model)
	for _, name := range []string{"free_nodes", "runnable"} {
		if !regexp.MustCompile(`(?m)^` + name + `\s`).MatchString(out) {
			t.Errorf("no %s row in inspect output:\n%s", name, out)
		}
	}
	for _, name := range []string{"rejected_times", "queue_delays"} {
		if regexp.MustCompile(`(?m)^` + name + `\s`).MatchString(out) {
			t.Errorf("a compacted model has no %s feature, but inspect printed a row for it:\n%s", name, out)
		}
	}
}

func TestCLIEndToEnd(t *testing.T) {
	si, er := bin(t, "schedinspect"), bin(t, "expreport")
	work := t.TempDir()
	swf := filepath.Join(work, "trace.swf.gz")
	model := filepath.Join(work, "model.ckpt")

	// tracegen: emit a small gzipped SWF trace.
	out := run(t, bin(t, "tracegen"), "-trace", "SDSC-SP2", "-jobs", "3000", "-o", swf)
	if _, err := os.Stat(swf); err != nil {
		t.Fatalf("tracegen produced no file: %v\n%s", err, out)
	}

	// schedinspect stats on the generated file.
	out = run(t, si, "stats", "-swf", swf)
	if !strings.Contains(out, "3000 jobs") || !strings.Contains(out, "cluster 128") {
		t.Fatalf("stats output unexpected:\n%s", out)
	}

	// train a tiny model on the SWF trace, with telemetry.
	telemetry := filepath.Join(work, "telemetry.csv")
	out = run(t, si, "train",
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
	out = run(t, er, "-curves", telemetry)
	if !strings.Contains(out, "mean_reward") || !strings.Contains(out, "2 epochs") {
		t.Fatalf("expreport -curves unexpected:\n%s", out)
	}

	// evaluate the model.
	out = run(t, si, "eval",
		"-swf", swf, "-policy", "SJF", "-metric", "bsld",
		"-sequences", "3", "-seqlen", "64", "-model", model)
	if !strings.Contains(out, "mean improvement") {
		t.Fatalf("eval output unexpected:\n%s", out)
	}

	// §5 analysis over the trace.
	out = run(t, si, "inspect", "-swf", swf, "-policy", "SJF", "-model", model)
	if !strings.Contains(out, "queue_delays") {
		t.Fatalf("inspect output unexpected:\n%s", out)
	}

	// expreport: list and one tiny experiment.
	out = run(t, er, "-list")
	if !strings.Contains(out, "fig13") || !strings.Contains(out, "rlsched") {
		t.Fatalf("expreport -list unexpected:\n%s", out)
	}
	out = run(t, er, "-tiny", "-exp", "table1")
	if !strings.Contains(out, "Case(b)-Inspected") {
		t.Fatalf("expreport table1 unexpected:\n%s", out)
	}

	// inspectord: serve the trained model and query it. -seed is explicit
	// here; the effective seed is also logged at startup either way.
	d := inspectord(t, "-model", model, "-seed", "7")
	var info struct {
		FeatureMode string `json:"feature_mode"`
	}
	if err := getJSON(d.url("/healthz"), &info); err != nil || info.FeatureMode != "manual" {
		t.Fatalf("served model info: %+v, %v", info, err)
	}
	if p := inspect(t, d, rand.New(rand.NewSource(1))); p < 0 || p > 1 {
		t.Fatalf("reject prob %v", p)
	}

	// /v1/simulate: a what-if schedule driven by the served model.
	simBody := `{"policy":"SJF","backfill":true,"max_procs":64,"inspector":"greedy",
		"jobs":[{"submit":0,"run":600,"est":900,"procs":48},
		        {"submit":10,"run":300,"est":400,"procs":32},
		        {"submit":20,"run":100,"est":120,"procs":8}]}`
	resp, err := client.Post(d.url("/v1/simulate"), "application/json", strings.NewReader(simBody))
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
	s := scrape(t, d)
	if f := s.Family("schedinspector_http_requests_total"); f == nil || f.Type != "counter" {
		t.Errorf("requests_total family: %+v", f)
	}
	if f := s.Family("schedinspector_http_request_duration_seconds"); f == nil || f.Type != "histogram" {
		t.Errorf("request_duration_seconds family: %+v", f)
	}
	if v, err := series(s, "schedinspector_http_requests_total", "code", "200", "route", "/v1/inspect"); err != nil || v != 1 {
		t.Errorf("200s on /v1/inspect: %v, %v; want 1", v, err)
	}
	acc, err1 := series(s, "schedinspector_inspect_decisions_total", "verdict", "accept")
	rej, err2 := series(s, "schedinspector_inspect_decisions_total", "verdict", "reject")
	if err := errors.Join(err1, err2); err != nil || acc+rej != 1 {
		t.Errorf("decisions: accept %v + reject %v, want 1 (%v)", acc, rej, err)
	}
	if _, err := series(s, "schedinspector_inspect_reject_ratio"); err != nil {
		t.Error(err)
	}

	// Graceful shutdown: SIGTERM drains and exits cleanly.
	if err := d.stop(t); err != nil {
		t.Fatalf("inspectord exit after SIGTERM: %v\n%s", err, d.out.String())
	}
	logOut := d.out.String()
	if !strings.Contains(logOut, "decision-sampling seed 7") {
		t.Errorf("effective seed not logged:\n%s", logOut)
	}
	if !strings.Contains(logOut, "stopped") {
		t.Errorf("graceful shutdown not logged:\n%s", logOut)
	}
}

// TestCLIFlightRecorder smoke-tests the decision flight recorder end to
// end: train with -flight, query the trace with schedinspect explain,
// convert it to JSONL and query that, plot it with expreport -rejects, and
// read back served decisions from inspectord's /v1/explain/last. The
// -workers 1 vs -workers 4 runs must produce identical feature-stats — the
// explain records are keyed by stable (epoch, trajectory, sequence) IDs,
// not by execution order.
func TestCLIFlightRecorder(t *testing.T) {
	si := bin(t, "schedinspect")
	work := t.TempDir()
	swf := filepath.Join(work, "trace.swf.gz")
	model := filepath.Join(work, "model.ckpt")
	run(t, bin(t, "tracegen"), "-trace", "SDSC-SP2", "-jobs", "3000", "-o", swf)

	common := []string{"train", "-swf", swf, "-policy", "SJF", "-metric", "bsld",
		"-epochs", "2", "-batch", "4", "-seqlen", "64", "-seed", "42"}
	flight1 := filepath.Join(work, "flight-w1.ftrace")
	flight4 := filepath.Join(work, "flight-w4.ftrace")
	out := run(t, si, append(common, "-workers", "1", "-flight", flight1, "-model", model)...)
	if !strings.Contains(out, "flight trace written") {
		t.Fatalf("flight trace not reported:\n%s", out)
	}
	run(t, si, append(common, "-workers", "4", "-flight", flight4, "-model", filepath.Join(work, "m4.ckpt"))...)

	// Default summary names the trace contents.
	out = run(t, si, "explain", "-in", flight1)
	if !strings.Contains(out, "decisions") || !strings.Contains(out, "manual features") {
		t.Fatalf("explain summary unexpected:\n%s", out)
	}

	// Native feature mode (102 features) records too: its records and header
	// outgrow the ring's initial slots, which used to drop every one of them
	// while the command still reported success.
	flightNative := filepath.Join(work, "flight-native.ftrace")
	run(t, si, "train", "-swf", swf, "-epochs", "1", "-batch", "2",
		"-seqlen", "32", "-seed", "42", "-features", "native", "-flight", flightNative,
		"-model", filepath.Join(work, "native.ckpt"))
	out = run(t, si, "explain", "-in", flightNative)
	if strings.Contains(out, ": 0 decisions") || !strings.Contains(out, "native features") {
		t.Fatalf("native-mode flight trace is empty or headerless:\n%s", out)
	}

	// Worker-count independence, through the whole CLI pipeline: the
	// reject-attribution tables from the two runs are byte-identical.
	stats1 := run(t, si, "explain", "-in", flight1, "-feature-stats")
	stats4 := run(t, si, "explain", "-in", flight4, "-feature-stats")
	if stats1 != stats4 {
		t.Fatalf("feature-stats differ across worker counts:\n-- workers=1:\n%s\n-- workers=4:\n%s", stats1, stats4)
	}
	if !strings.Contains(stats1, "mean(accept)") || !strings.Contains(stats1, "queue_delays") {
		t.Fatalf("feature-stats output unexpected:\n%s", stats1)
	}

	// And re-running the same query is deterministic.
	if again := run(t, si, "explain", "-in", flight1, "-feature-stats"); again != stats1 {
		t.Fatal("explain -feature-stats not deterministic across invocations")
	}

	// The offline JSONL rendering answers the same query identically.
	converted := filepath.Join(work, "converted.jsonl")
	run(t, si, "explain", "-in", flight1, "-convert", converted)
	if fromJSONL := run(t, si, "explain", "-in", converted, "-feature-stats"); fromJSONL != stats1 {
		t.Fatalf("feature-stats of the converted JSONL differ:\n%s\nvs .ftrace:\n%s", fromJSONL, stats1)
	}

	// Top-rejected and window queries produce their tables.
	out = run(t, si, "explain", "-in", flight1, "-top-rejected", "5")
	if !strings.Contains(out, "rejects") {
		t.Fatalf("top-rejected output unexpected:\n%s", out)
	}
	out = run(t, si, "explain", "-in", flight1, "-window", "0:1e12")
	if !strings.Contains(out, "verdict") {
		t.Fatalf("window output unexpected:\n%s", out)
	}
	if out = run(t, si, "explain", "-in", flight1, "-window", "-inf:inf"); !strings.Contains(out, "verdict") {
		t.Fatalf("-window -inf:inf output unexpected:\n%s", out)
	}
	// A NaN bound selects nothing; it is refused, not answered with no rows.
	for _, w := range []string{"NaN:5", "5:NaN"} {
		out, err := exec.Command(si, "explain", "-in", flight1, "-window", w).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "T1 > T0") {
			t.Fatalf("-window %s: err=%v, want a refusal naming T1 > T0:\n%s", w, err, out)
		}
	}

	// expreport -rejects plots the reject-rate-vs-utilization curve.
	out = run(t, bin(t, "expreport"), "-rejects", flight1)
	if !strings.Contains(out, "reject rate vs utilization") || !strings.Contains(out, "0.9-1.0") {
		t.Fatalf("expreport -rejects unexpected:\n%s", out)
	}

	// version subcommand reports the stamped build identity.
	out = run(t, si, "version")
	if !strings.Contains(out, "schedinspect") || !strings.Contains(out, "go1.") {
		t.Fatalf("version output unexpected:\n%s", out)
	}

	// inspectord: served decisions land in /v1/explain/last, and /metrics
	// carries build_info plus the runtime self-profiling gauges.
	d := inspectord(t, "-model", model, "-seed", "7", "-proc-interval", "50ms")
	rng := rand.New(rand.NewSource(1))
	for range 3 {
		inspect(t, d, rng)
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
	if err := getJSON(d.url("/v1/explain/last?n=2"), &last); err != nil {
		t.Fatal(err)
	}
	if last.Total != 3 || len(last.Records) != 2 || len(last.FeatureNames) == 0 {
		t.Fatalf("/v1/explain/last: %+v", last)
	}
	if last.Records[1].Seq != 2 || !last.Records[1].Sampled {
		t.Fatalf("/v1/explain/last records: %+v", last.Records)
	}

	s := scrape(t, d)
	if v, err := series(s, "schedinspector_build_info"); err != nil || v != 1 {
		t.Errorf("build_info: %v, %v", v, err)
	}
	if v, err := series(s, "schedinspector_goroutines"); err != nil || !(v > 0) {
		t.Errorf("proc sampler goroutines gauge: %v, %v", v, err)
	}
}

// TestProcessDistWorldSizes trains once in a single process and then with
// 2- and 3-rank train-worker meshes over unix sockets: every rank must
// write the single-process model's exact bytes. Three ranks split the
// batch of 4 as 2/1/1, so the exchange carries unaligned shards.
func TestProcessDistWorldSizes(t *testing.T) {
	si := bin(t, "schedinspect")
	work := t.TempDir()
	single := filepath.Join(work, "single.ckpt")
	run(t, si, train("train", 2, "-model", single)...)
	want, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	for _, world := range []int{2, 3} {
		t.Run(fmt.Sprintf("world=%d", world), func(t *testing.T) {
			peers, models := make([]string, world), make([]string, world)
			for r := range peers {
				peers[r] = filepath.Join(work, fmt.Sprintf("w%d-%d.sock", world, r))
				models[r] = filepath.Join(work, fmt.Sprintf("world%d-rank%d.ckpt", world, r))
			}
			ranks := make([]*exec.Cmd, world)
			outs := make([]bytes.Buffer, world)
			for r := range ranks {
				ranks[r] = exec.Command(si, train("train-worker", 2, "-world", strconv.Itoa(world),
					"-rank", strconv.Itoa(r), "-peers", strings.Join(peers, ","), "-model", models[r])...)
				ranks[r].Stdout, ranks[r].Stderr = &outs[r], &outs[r]
				if err := ranks[r].Start(); err != nil {
					t.Fatal(err)
				}
			}
			errs := make([]error, world)
			for r, cmd := range ranks {
				errs[r] = cmd.Wait()
			}
			for r := range ranks {
				if errs[r] != nil {
					t.Fatalf("rank %d: %v\n%s", r, errs[r], outs[r].String())
				}
				if got, err := os.ReadFile(models[r]); err != nil || !bytes.Equal(got, want) {
					t.Errorf("rank %d model differs from single-process (%v)", r, err)
				}
			}
		})
	}
}

// TestProcessOnlineFleet stands up inspectord's online loop, two
// train-workers meshed over unix sockets with -metrics-addr, and a fleet
// daemon scraping all three, then drives seeded /v1/inspect traffic until
// the loop reaches a verdict and the fleet plane shows it. Serving must
// stay uninterrupted throughout, and the generation gauge must agree with
// /v1/online/status before and after.
func TestProcessOnlineFleet(t *testing.T) {
	si := bin(t, "schedinspect")
	work := t.TempDir()
	model := filepath.Join(work, "model.ckpt")
	run(t, si, train("train", 1, "-model", model)...)

	insp := inspectord(t, "-model", model, "-seed", "7", "-online", "-online-interval", "500ms",
		"-online-min-window", "256", "-online-dir", filepath.Join(work, "promoted"))
	insp.status = "/v1/online/status"
	targets := "inspectord=" + insp.addr
	peers := filepath.Join(work, "w0.sock") + "," + filepath.Join(work, "w1.sock")
	for r := range 2 {
		w := start(t, "/metrics", si, train("train-worker", 100000, "-world", "2", "-rank", strconv.Itoa(r),
			"-peers", peers, "-metrics-addr", "127.0.0.1:0", "-model", filepath.Join(work, fmt.Sprintf("rank%d.ckpt", r)))...)
		targets += fmt.Sprintf(",w%d=%s", r, w.addr)
	}
	fl := start(t, "/v1/fleet", si, "fleet", "-targets", targets, "-addr", "127.0.0.1:0",
		"-interval", "1s", "-window", "30s")
	fl.status = "/v1/fleet"

	status := func() online.Status {
		var st online.Status
		if err := getJSON(insp.url("/v1/online/status"), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	generation := func() int64 {
		g, err := series(scrape(t, insp), "schedinspector_model_generation")
		if err != nil {
			t.Fatal(err)
		}
		return int64(g)
	}
	st := status()
	if !st.Enabled {
		t.Fatalf("online loop disabled: %+v", st)
	}
	startGen := st.ServingGeneration
	if g := generation(); g != startGen {
		t.Fatalf("generation gauge %d, status %d at start", g, startGen)
	}

	rng := rand.New(rand.NewSource(1))
	for range 1500 {
		inspect(t, insp, rng)
	}
	var fs fleet.FleetStatus
	poll(t, 120*time.Second, func() error {
		st, fs = status(), fleet.FleetStatus{}
		if err := getJSON(fl.url("/v1/fleet"), &fs); err != nil {
			return err
		}
		unmet := assessFleet(&fs)
		if st.Retrains == 0 || st.ShadowEvals == 0 || st.Promotions+st.Rejections == 0 {
			unmet = append(unmet, fmt.Sprintf("no loop verdict: retrains %d, shadow evals %d, promotions %d, rejections %d, window %d/%d, last error %q",
				st.Retrains, st.ShadowEvals, st.Promotions, st.Rejections, st.WindowRecords, st.MinWindow, st.LastError))
		}
		if len(unmet) == 0 {
			return nil
		}
		for range 25 { // serving stays up while the loop trains and evaluates
			inspect(t, insp, rng)
		}
		return errors.New(strings.Join(unmet, "; "))
	})

	if st.RetrainFailures > 0 {
		t.Errorf("%d retrain failures", st.RetrainFailures)
	}
	// Another cycle may end between the two reads: refetch once.
	if g := generation(); g != st.ServingGeneration {
		if st = status(); g != st.ServingGeneration {
			t.Errorf("generation gauge %d, status %d", g, st.ServingGeneration)
		}
	}
	if st.Promotions > 0 && st.ServingGeneration <= startGen {
		t.Errorf("promotion left the generation at %d (start %d)", st.ServingGeneration, startGen)
	}
	if st.Promotions == 0 && st.ServingGeneration != startGen {
		t.Errorf("rejections moved the generation %d -> %d", startGen, st.ServingGeneration)
	}
	for range 100 {
		inspect(t, insp, rng)
	}

	// The plane's own exposition agrees that every target is up.
	s := scrape(t, fl)
	for _, tg := range fs.Targets {
		if v, err := series(s, "schedinspector_fleet_target_up", "target", tg.Name); err != nil || v != 1 {
			t.Errorf("fleet target_up{target=%q} = %v (%v), want 1", tg.Name, v, err)
		}
	}
	run(t, si, "fleet", "-once", "-targets", targets, "-interval", "1s")
}

// assessFleet returns the fleet-plane assertions st does not meet yet.
func assessFleet(st *fleet.FleetStatus) []string {
	if len(st.Targets) != 3 {
		return []string{fmt.Sprintf("%d targets, want 3", len(st.Targets))}
	}
	var (
		unmet              []string
		insp               *fleet.TargetStatus
		workers, quantiles int
	)
	for i, tg := range st.Targets {
		if !tg.Up || tg.Points < 2 {
			unmet = append(unmet, fmt.Sprintf("target %s up %v with %d points %s", tg.Name, tg.Up, tg.Points, tg.LastErr))
		}
		switch tg.Kind {
		case "train-worker":
			workers++
		case "inspectord":
			insp = &st.Targets[i]
		}
		quantiles += len(tg.Quantiles)
	}
	if workers != 2 || insp == nil {
		return append(unmet, fmt.Sprintf("%d train-workers and inspectord %v classified", workers, insp != nil))
	}
	if r := insp.Rates["schedinspector_inspect_decisions_total"]; !(r > 0) {
		unmet = append(unmet, fmt.Sprintf("inspectord decision rate %v", r))
	}
	if quantiles == 0 {
		unmet = append(unmet, "no histogram quantile on any target")
	}
	if st.Dist == nil || st.Dist.Workers != 2 || !(st.Dist.EpochRate > 0) {
		unmet = append(unmet, fmt.Sprintf("dist summary %+v, want 2 workers at a positive epoch rate", st.Dist))
	}
	straggler := false
	for _, rs := range st.Rules {
		straggler = straggler || rs.Name == "rank-straggler" && rs.Evaluated > 0
	}
	if !straggler {
		unmet = append(unmet, "rank-straggler rule never evaluated")
	}
	var hist struct {
		Candidates []struct {
			Verdict string `json:"verdict"`
		} `json:"candidates"`
	}
	_ = json.Unmarshal(insp.OnlineHistory, &hist) // empty until the first fetch: no verdicts yet
	verdicts := 0
	for _, c := range hist.Candidates {
		if c.Verdict != "" {
			verdicts++
		}
	}
	if verdicts == 0 {
		unmet = append(unmet, "no online verdict surfaced in /v1/fleet")
	}
	return unmet
}
