// Command bench is the repository's benchmark: one program that measures
// serving, training, distributed training and the online cycle end to end
// and layer by layer, every layer timed from outside through its public
// functions. BENCHMARK.json at the repository root declares the command,
// the workloads and the metrics; README.md says what each is for.
//
//	go run ./bench --workload serve-shallow --seed 1 --seconds 10 --trace 0
//	bench/run.sh [-seed N] [-workload name] [-quick] [-allow-dirty]
//
// The first form is one pass of one workload and ends with one JSON line;
// the second (go run ./bench -all) runs every workload untraced and then
// traced, prints one line per metric and writes bench/out/result.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// values are metric values by name.
type values map[string]float64

// outcome is what one pass of one workload produced.
type outcome struct {
	attempted int
	failed    int
	samples   int // timings behind the pass's medians
	metrics   values
	failures  []string
	notes     []string
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = values{}
	}
	o.metrics[name] = v
}

// fail records n failed operations or output checks.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// absorb folds a background group's counts and failures into o.
func (o *outcome) absorb(other *outcome, group string) {
	o.attempted += other.attempted
	o.failed += other.failed
	for _, f := range other.failures {
		o.failures = append(o.failures, group+": "+f)
	}
}

// bench is one invocation's state.
type bench struct {
	env   *env
	seed  int64
	nproc int
	quick bool
}

// sizesFor returns the sizes a workload's own pass runs at.
func (b *bench) sizesFor() sizes {
	if b.quick {
		return quickSizes
	}
	return fullSizes
}

// runUntraced is the --trace 0 pass: the end-to-end metrics of one workload.
func (b *bench) runUntraced(ctx context.Context, wl *workloadDef, seconds time.Duration) (*outcome, error) {
	sz := b.sizesFor()
	var o *outcome
	var err error
	switch wl.Group {
	case "serve":
		o, err = runServe(ctx, b, wl.Name, seconds)
	case "train":
		o, err = runTrain(ctx, b, sz, seconds)
	case "eval":
		o, err = runEval(ctx, b, sz, seconds)
	case "dist":
		o, err = runDist(ctx, b, sz, seconds)
	case "online":
		o, err = runOnline(ctx, b, sz, seconds)
	}
	if err != nil {
		return nil, err
	}
	o.set("setup_s", b.env.setupS)
	return o, nil
}

// layerGroups are the five groups of per-layer metrics, each measured by
// one function at the sizes and budget it is given.
var layerGroups = []string{"serve", "train", "eval", "dist", "online"}

func (b *bench) runGroup(ctx context.Context, group, wl string, sz sizes, budget time.Duration, tr *tracer, out values) (*outcome, error) {
	switch group {
	case "serve":
		return layersServe(ctx, b, wl, sz, budget, tr, out)
	case "train":
		return layersTrain(ctx, b, sz, budget, tr, out)
	case "eval":
		return layersEval(ctx, b, sz, budget, tr, out)
	case "dist":
		return layersDist(ctx, b, sz, budget, tr, out)
	case "online":
		return layersOnline(ctx, b, sz, budget, tr, out)
	}
	return nil, fmt.Errorf("unknown layer group %q", group)
}

// runTraced is the --trace 1 pass. The workload's own group runs at the
// workload's sizes for most of the time, with spans, and writes the trace
// file; every other group runs at quick size without spans, so that every
// per-layer metric of every run is a measurement.
func (b *bench) runTraced(ctx context.Context, wl *workloadDef, seconds time.Duration) (*outcome, error) {
	tr := newTracer(time.Now(), 1<<16)
	out := values{}
	o, err := b.runGroup(ctx, wl.Group, wl.Name, b.sizesFor(), seconds*6/10, tr, out)
	if err != nil {
		return nil, err
	}
	if err := tr.writeFile(filepath.Join(b.env.outDir, "trace-"+wl.Name+".json"), wl.Name); err != nil {
		return nil, err
	}
	o.samples = len(tr.spans)
	for _, g := range layerGroups {
		if g == wl.Group {
			continue
		}
		bg, err := b.runGroup(ctx, g, "", quickSizes, quickBudget, nil, out)
		if err != nil {
			return nil, fmt.Errorf("background group %s: %w", g, err)
		}
		o.absorb(bg, g)
	}
	out["build_s"] = b.env.buildS
	o.metrics = out
	return o, nil
}

// contractLine is the last line of standard output of a single-workload
// run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report shapes an outcome's metrics by the declared list, refusing a pass
// that left one out or produced a non-number.
func report(o *outcome, defs []metricDef) (map[string]metricValue, error) {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		m[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return m, nil
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload   = fs.String("workload", "", "workload to run (required unless -all): "+strings.Join(workloadNames(), ", "))
		seed       = fs.Int64("seed", 1, "seed of the generated inputs (request streams, op mix, evaluation sequences)")
		seconds    = fs.Float64("seconds", 10, "measured time of one pass (BENCHMARK.json asks for 15)")
		trace      = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, spans recorded")
		quick      = fs.Bool("quick", false, "every workload at about a tenth of its size; numbers are not for comparison")
		all        = fs.Bool("all", false, "run every workload (or -workload) untraced then traced, print every metric, write bench/out/result.json")
		commit     = fs.String("commit", "unknown", "git commit recorded in result.json (set by run.sh)")
		dirty      = fs.Bool("dirty", false, "whether internal/ or cmd/ had uncommitted changes (set by run.sh)")
		printBench = fs.Bool("print-benchmark-json", false, "print BENCHMARK.json from the metric tables and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	flagSet := func(name string) bool {
		set := false
		fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
		return set
	}
	if *printBench {
		os.Stdout.Write(benchmarkJSON())
		return 0
	}
	if *quick && !flagSet("seconds") {
		*seconds = 1
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var picked []*workloadDef
	if *workload != "" {
		wl := workloadByName(*workload)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		picked = append(picked, wl)
	} else if *all {
		for i := range workloads {
			picked = append(picked, &workloads[i])
		}
	} else {
		fmt.Fprintln(os.Stderr, "bench: -workload or -all is required")
		return 2
	}

	// SIGINT/SIGTERM cancel the context; every loop checks it, and the
	// deferred close below stops the daemon and removes the run directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The daemon is built on every CPU there is, then everything runs on one
	// (affinity.go says why). Where the kernel refuses, the run goes on
	// unpinned and says so.
	e, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer e.close()
	if unpin, err := pinProcess(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: not pinned to one CPU, timings will be noisier: %v\n", err)
	} else {
		defer unpin()
	}
	b := &bench{env: e, seed: *seed, nproc: runtime.NumCPU(), quick: *quick}
	dur := time.Duration(*seconds * float64(time.Second))

	if !*all {
		return b.single(ctx, picked[0], dur, *trace == 1)
	}
	return b.everything(ctx, picked, dur, hostInfo{Commit: *commit, Dirty: *dirty})
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// setupReps is how many times a pass that reports setup_s sets up; the
// median is reported.
func (b *bench) setupReps(traced bool) int {
	if traced || b.quick {
		return 1
	}
	return 5
}

// pass sets up and runs one pass of one workload.
func (b *bench) pass(ctx context.Context, wl *workloadDef, dur time.Duration, traced bool) (*outcome, error) {
	if err := b.env.setup(ctx, b.seed, b.sizesFor(), b.setupReps(traced)); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.env.stopDaemon()
	if traced {
		// The traced pass starts the daemons it needs.
		b.env.stopDaemon()
		return b.runTraced(ctx, wl, dur)
	}
	if wl.Group != "serve" {
		b.env.stopDaemon()
		resetSelfRSS()
	}
	return b.runUntraced(ctx, wl, dur)
}

// single is the contract form: one pass, one JSON line last on stdout.
func (b *bench) single(ctx context.Context, wl *workloadDef, dur time.Duration, traced bool) int {
	o, err := b.pass(ctx, wl, dur, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
		return 1
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	m, err := report(o, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
		return 1
	}
	for _, f := range o.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", wl.Name, f)
	}
	for _, n := range o.notes {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", wl.Name, n)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d timing samples, %d ops attempted, %d failed\n", wl.Name, o.samples, o.attempted, o.failed)
	line, _ := json.Marshal(contractLine{Correct: o.failed == 0, Attempted: max(o.attempted, o.failed, 1), Failed: o.failed, Metrics: m})
	fmt.Println(string(line))
	if o.failed > 0 {
		return 1
	}
	return 0
}

// hostInfo is the host metadata result.json carries, so a committed number
// names the machine and the commit it was taken on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Quick      bool   `json:"quick_not_for_comparison"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// workloadResult is one workload's entry in result.json.
type workloadResult struct {
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	FailRatio float64                `json:"fail_ratio"`
	Samples   int                    `json:"timing_samples"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Failures  []string               `json:"failures,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
}

// everything is the one-command form: each picked workload untraced, then
// each traced, one printed line per metric, result.json at the end. The
// exit code is non-zero if any operation or output check failed.
func (b *bench) everything(ctx context.Context, picked []*workloadDef, dur time.Duration, host hostInfo) int {
	host.NProc, host.GOMAXPROCS, host.GoVersion = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	host.CPUModel, host.Quick = cpuModel(), b.quick
	results := map[string]*workloadResult{}
	exit := 0
	if b.quick {
		fmt.Println("# -quick: sizes are a tenth of the real ones; these numbers are not for comparison")
	}
	for _, traced := range []bool{false, true} {
		for _, wl := range picked {
			// The traced pass is shorter: its numbers have no bound to hold.
			d := dur
			if traced {
				d = dur / 3
			}
			o, err := b.pass(ctx, wl, d, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
				return 1
			}
			r := results[wl.Name]
			if r == nil {
				r = &workloadResult{}
				results[wl.Name] = r
			}
			defs, dst := endToEnd, &r.EndToEnd
			if traced {
				defs, dst = perLayer, &r.PerLayer
			} else {
				r.Samples = o.samples
			}
			if *dst, err = report(o, defs); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
				return 1
			}
			r.Attempted += max(o.attempted, o.failed, 1)
			r.Failed += o.failed
			r.FailRatio = float64(r.Failed) / float64(r.Attempted)
			r.Failures = append(r.Failures, o.failures...)
			r.Notes = append(r.Notes, o.notes...)
			for _, d := range defs {
				fmt.Printf("%s %s %v %s\n", wl.Name, d.Name, (*dst)[d.Name].Value, d.Unit)
			}
			if !traced {
				fmt.Printf("%s timing_samples %d count\n", wl.Name, o.samples)
			}
			for _, f := range o.failures {
				fmt.Printf("# %s FAILED: %s\n", wl.Name, f)
				exit = 1
			}
			for _, n := range o.notes {
				fmt.Printf("# %s: %s\n", wl.Name, n)
			}
		}
	}
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := results[n]
		fmt.Printf("%s ops_attempted %d count\n%s ops_failed %d count\n%s fail_ratio %v ratio\n", n, r.Attempted, n, r.Failed, n, r.FailRatio)
	}
	doc := struct {
		Host      hostInfo                   `json:"host"`
		Seed      int64                      `json:"seed"`
		Seconds   float64                    `json:"seconds"`
		Workloads map[string]*workloadResult `json:"workloads"`
	}{host, b.seed, dur.Seconds(), results}
	data, _ := json.MarshalIndent(doc, "", "  ")
	path := filepath.Join(b.env.outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("# wrote %s and one trace-<workload>.json per workload beside it\n", path)
	return exit
}

// benchmarkJSON renders BENCHMARK.json from the tables in defs.go, which is
// how the file at the repository root was made; a test keeps the two equal.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: 15}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, _ := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n')
}
