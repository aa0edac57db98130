// Command schedinspect trains, evaluates and inspects SchedInspector models
// from the command line.
//
// Subcommands:
//
//	schedinspect train -trace SDSC-SP2 -policy SJF -metric bsld -epochs 40 -model model.ckpt
//	schedinspect eval  -trace SDSC-SP2 -policy SJF -metric bsld -model model.ckpt
//	schedinspect stats -trace SDSC-SP2
//
// Traces are either one of the built-in synthetic workloads ("SDSC-SP2",
// "CTC-SP2", "HPC2N", "Lublin") or a Standard Workload Format file given
// with -swf.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/dist"
	"schedinspector/internal/explain"
	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/sched"
	"schedinspector/internal/version"
	"schedinspector/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:], false)
	case "train-worker":
		err = cmdTrain(os.Args[2:], true)
	case "eval":
		err = cmdEval(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "version":
		fmt.Println("schedinspect", version.String())
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "schedinspect: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedinspect:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  schedinspect train -trace NAME [-swf FILE] -policy SJF -metric bsld [-epochs N] [-batch N] [-workers N] [-backfill] [-flight OUT.ftrace] [-checkpoint-dir DIR [-checkpoint-every N] [-resume]] -model OUT.ckpt
  schedinspect train-worker -rank N -world M -peers ADDR0,ADDR1,... [train flags] -model OUT.ckpt
  schedinspect eval  -trace NAME [-swf FILE] -policy SJF -metric bsld [-sequences N] [-workers N] [-backfill] -model IN.ckpt
  schedinspect stats -trace NAME [-swf FILE]
  schedinspect inspect -trace NAME [-swf FILE] -policy SJF -model IN.ckpt
  schedinspect explain -in FLIGHT[.jsonl|.ftrace] [-convert OUT.jsonl | -job ID | -window T0:T1 | -top-rejected N | -feature-stats]
  schedinspect version

train and eval accept -flight OUT to record a decision flight trace (one
explain record per decision, under epoch/eval and episode spans) for
schedinspect explain. The trace is written as binary .ftrace; explain reads
it directly and -convert renders it as JSONL.`)
}

// flightFlag adds the shared flight-recorder flag to fs.
func flightFlag(fs *flag.FlagSet) *string {
	return fs.String("flight", "", "record a decision flight trace (one explain record per decision, epoch/eval and episode spans) to this .ftrace file")
}

// openFlight builds the flight recorder for -flight and attaches the sink
// file.
func openFlight(path string) (*obs.TraceRing, *os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	ring := obs.NewTraceRing(0)
	ring.SetSink(f)
	return ring, f, nil
}

// closeFlight flushes the recorder and surfaces a sink error or dropped
// records as the command's exit status.
func closeFlight(ring *obs.TraceRing, path string) error {
	if err := ring.Flush(); err != nil {
		return fmt.Errorf("flight trace: %w", err)
	}
	if n := ring.Oversized(); n > 0 {
		return fmt.Errorf("flight trace %s is incomplete: %d records were too large to record", path, n)
	}
	fmt.Printf("flight trace written to %s (inspect with: schedinspect explain -in %s)\n", path, path)
	return nil
}

// traceFlags adds the shared trace-selection flags to fs.
func traceFlags(fs *flag.FlagSet) (name *string, swf *string, jobs *int, seed *int64) {
	name = fs.String("trace", "SDSC-SP2", "built-in trace name (SDSC-SP2, CTC-SP2, HPC2N, Lublin)")
	swf = fs.String("swf", "", "load the trace from a Standard Workload Format file instead")
	jobs = fs.Int("jobs", 20000, "jobs to generate for built-in traces")
	seed = fs.Int64("seed", 42, "generator seed for built-in traces")
	return
}

func loadTrace(name, swf string, jobs int, seed int64) (*workload.Trace, error) {
	if swf == "" {
		return workload.ByName(name, jobs, seed)
	}
	return workload.ParseSWFFile(swf) // handles .gz transparently
}

// cmdTrain implements both the single-process "train" subcommand and the
// distributed "train-worker" one (worker=true): the flows are identical —
// build config, resume, drive epochs, save the model — except that a
// worker adds the rank/world/peers flags and runs its epochs through the
// dist engine's exchange barrier. Every worker rank saves -model, and the
// bytes are identical across ranks and to a single-process run on the
// same seed/config (the property cmd's TestProcessDistWorldSizes diffs).
func cmdTrain(args []string, worker bool) (err error) {
	cmdName := "train"
	if worker {
		cmdName = "train-worker"
	}
	fs := flag.NewFlagSet(cmdName, flag.ExitOnError)
	name, swf, jobs, seed := traceFlags(fs)
	polName := fs.String("policy", "SJF", "base scheduling policy (FCFS, LCFS, SJF, SQF, SAF, SRF, F1, Slurm)")
	metric := fs.String("metric", "bsld", "metric to optimize (bsld, wait, mbsld)")
	epochs := fs.Int("epochs", 40, "training epochs")
	batch := fs.Int("batch", 50, "trajectories per epoch")
	seqLen := fs.Int("seqlen", 128, "jobs per trajectory")
	backfill := fs.Bool("backfill", false, "enable EASY backfilling")
	features := fs.String("features", "manual", "feature mode (manual, compacted, native)")
	reward := fs.String("reward", "percentage", "reward function (percentage, native, winloss)")
	model := fs.String("model", "model.ckpt", "output model path")
	workers := fs.Int("workers", 0, "rollout worker goroutines (0 = one per CPU); results are identical at any count")
	ckptDir := fs.String("checkpoint-dir", "", "write durable training checkpoints to this directory (atomic, CRC-guarded)")
	ckptEvery := fs.Int("checkpoint-every", 10, "epochs between periodic checkpoints (with -checkpoint-dir)")
	ckptKeep := fs.Int("checkpoint-keep", 3, "checkpoint files to retain, oldest pruned first (0 = keep all)")
	resume := fs.Bool("resume", false, "resume from the latest valid checkpoint in -checkpoint-dir")
	flight := flightFlag(fs)
	var rank, world *int
	var peersList, network, metricsAddr *string
	var dialTimeout, exchangeTimeout *time.Duration
	if worker {
		rank = fs.Int("rank", 0, "this worker's rank in [0, world)")
		world = fs.Int("world", 2, "number of cooperating worker processes")
		peersList = fs.String("peers", "", "comma-separated listen addresses, one per rank in rank order")
		network = fs.String("network", "", "peer network: tcp, unix, or empty to infer per address")
		dialTimeout = fs.Duration("dial-timeout", 30*time.Second, "bound on establishing the peer mesh")
		exchangeTimeout = fs.Duration("exchange-timeout", 10*time.Minute, "bound on each exchange round of an epoch; must cover the slowest peer's rollout")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics (dist exchange + rollout telemetry) on this address for any scraper")
	}
	fs.Parse(args)

	switch {
	case *epochs < 0:
		return fmt.Errorf("-epochs must be >= 0, got %d", *epochs)
	case *ckptEvery < 0:
		return fmt.Errorf("-checkpoint-every must be >= 0 (0 = only on interruption and completion), got %d", *ckptEvery)
	case *ckptKeep < 0:
		return fmt.Errorf("-checkpoint-keep must be >= 0 (0 = keep all), got %d", *ckptKeep)
	case *resume && *ckptDir == "":
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	tr, err := loadTrace(*name, *swf, *jobs, *seed)
	if err != nil {
		return err
	}
	pol, err := sched.ForTrace(*polName, tr)
	if err != nil {
		return err
	}
	m, err := metrics.ParseMetric(*metric)
	if err != nil {
		return err
	}
	var cfg core.TrainConfig
	cfg.Trace, cfg.Policy, cfg.Metric = tr, pol, m
	cfg.Backfill = *backfill
	cfg.Batch, cfg.SeqLen, cfg.Seed = *batch, *seqLen, *seed
	cfg.Workers = *workers
	if worker {
		cfg.World, cfg.Rank = *world, *rank
		if *peersList != "" {
			cfg.Peers = strings.Split(*peersList, ",")
		}
	}
	if cfg.FeatureMode, err = core.ParseFeatureMode(*features); err != nil {
		return err
	}
	if cfg.RewardKind, err = core.ParseRewardKind(*reward); err != nil {
		return err
	}
	// -metrics-addr turns a worker into a scrape target: the dist exchange
	// metrics plus the rollout telemetry its trainer already emits, on the
	// same Prometheus text endpoint inspectord serves. The listener is
	// opened before training so a bad address fails fast, and shut down
	// gracefully when the worker exits so in-flight scrapes drain instead
	// of tearing.
	var distMetrics *dist.Metrics
	if worker && *metricsAddr != "" {
		reg := obs.NewRegistry()
		distMetrics = dist.NewMetrics(reg)
		cfg.Metrics = core.NewRolloutMetrics(reg)
		version.Register(reg, *features)
		shutdownMetrics, err := serveWorkerMetrics(reg, *metricsAddr, *rank)
		if err != nil {
			return fmt.Errorf("metrics-addr: %w", err)
		}
		defer shutdownMetrics()
	}
	if *flight != "" {
		rec, f, ferr := openFlight(*flight)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		cfg.Flight = rec
		// Flush on every exit path: the ring's pending frame holds the last
		// epochs' spans, which an interrupted or failed run keeps too.
		defer func() {
			if ferr := closeFlight(rec, *flight); err == nil {
				err = ferr
			}
		}()
	}
	trainer, err := core.NewTrainer(cfg)
	if err != nil {
		return err
	}
	remaining := *epochs
	if *resume {
		ck, err := trainer.ResumeLatest(*ckptDir)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		remaining = *epochs - ck.Epoch
		fmt.Printf("resumed from checkpoint at epoch %d (%d epochs remaining)\n", ck.Epoch, max(remaining, 0))
		if remaining <= 0 {
			fmt.Printf("checkpoint already at or past -epochs %d; nothing to train\n", *epochs)
			return trainer.Inspector().SaveFile(*model)
		}
	}

	// SIGINT/SIGTERM finish the in-flight epoch, persist a checkpoint
	// (when -checkpoint-dir is set) and exit cleanly; a second signal
	// kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	t0 := time.Now()
	ck := core.CheckpointConfig{Dir: *ckptDir, Every: *ckptEvery, Keep: *ckptKeep}
	prefix := ""
	if worker {
		prefix = fmt.Sprintf("rank %d ", *rank)
	}
	progress := func(st core.EpochStats) {
		fmt.Printf("%sepoch %3d/%d: improvement %9.2f (%+.1f%%), rejection ratio %.2f\n",
			prefix, st.Epoch, *epochs, st.MeanImprovement, 100*st.MeanPctImprovement, st.RejectionRatio)
	}
	if worker {
		_, err = dist.Train(ctx, trainer, remaining, ck, dist.Options{
			Network:         *network,
			DialTimeout:     *dialTimeout,
			ExchangeTimeout: *exchangeTimeout,
			Metrics:         distMetrics,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}, progress)
	} else {
		_, err = trainer.TrainCtx(ctx, remaining, ck, progress)
	}
	if errors.Is(err, core.ErrInterrupted) {
		stop()
		if *ckptDir != "" {
			fmt.Printf("interrupted; checkpoint saved in %s (resume with -resume)\n", *ckptDir)
			return nil
		}
		fmt.Println("interrupted (no -checkpoint-dir, progress discarded)")
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("trained in %v\n", time.Since(t0).Round(time.Second))
	if err := trainer.Inspector().SaveFile(*model); err != nil {
		return err
	}
	fmt.Printf("model saved to %s\n", *model)
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	name, swf, jobs, seed := traceFlags(fs)
	polName := fs.String("policy", "SJF", "base scheduling policy")
	metric := fs.String("metric", "bsld", "metric to report (bsld, wait, mbsld, util)")
	sequences := fs.Int("sequences", 50, "sampled test sequences")
	seqLen := fs.Int("seqlen", 256, "jobs per test sequence")
	backfill := fs.Bool("backfill", false, "enable EASY backfilling")
	model := fs.String("model", "model.ckpt", "trained model or checkpoint path")
	workers := fs.Int("workers", 0, "rollout worker goroutines (0 = one per CPU); results are identical at any count")
	flight := flightFlag(fs)
	fs.Parse(args)

	tr, err := loadTrace(*name, *swf, *jobs, *seed)
	if err != nil {
		return err
	}
	pol, err := sched.ForTrace(*polName, tr)
	if err != nil {
		return err
	}
	m, err := metrics.ParseMetric(*metric)
	if err != nil {
		return err
	}
	mod, err := core.LoadServable(*model, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	// Rebind feature normalization to the evaluation trace (cross-trace use).
	mod = mod.WithNormalizer(core.NormalizerForTrace(tr, m))
	evalCfg := core.EvalConfig{
		Trace: tr, Policy: pol, Metric: m, Backfill: *backfill,
		Sequences: *sequences, SeqLen: *seqLen, Seed: *seed,
		Workers: *workers,
	}
	var flightRec *obs.TraceRing
	if *flight != "" {
		rec, f, err := openFlight(*flight)
		if err != nil {
			return err
		}
		defer f.Close()
		flightRec = rec
		evalCfg.Flight = flightRec
	}
	res, err := core.Evaluate(mod, evalCfg)
	if err != nil {
		return err
	}
	if flightRec != nil {
		if err := closeFlight(flightRec, *flight); err != nil {
			return err
		}
	}
	// Report what ran, not the raw flags: EvalConfig turns 0 into its
	// defaults, and every sequence summarises the same SeqLen jobs.
	base, ins := res.Boxes(m)
	fmt.Printf("metric %s over %d sequences of %d jobs (%s, backfill=%v):\n",
		m, len(res.Base), res.Base[0].Jobs, pol.Name(), *backfill)
	fmt.Printf("  base:      %v\n", base)
	fmt.Printf("  inspected: %v\n", ins)
	fmt.Printf("  mean improvement: %+.1f%%, rejection ratio %.2f\n",
		100*res.MeanImprovement(m), res.RejectionRatio())
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	name, swf, jobs, seed := traceFlags(fs)
	fs.Parse(args)
	tr, err := loadTrace(*name, *swf, *jobs, *seed)
	if err != nil {
		return err
	}
	s := workload.ComputeStats(tr)
	fmt.Printf("trace %s: %d jobs, cluster %d procs\n", tr.Name, s.Jobs, s.MaxProcs)
	fmt.Printf("  mean arrival interval: %.0f s\n", s.MeanInterval)
	fmt.Printf("  mean estimated runtime: %.0f s (max %.0f)\n", s.MeanEst, s.MaxEst)
	fmt.Printf("  mean actual runtime: %.0f s\n", s.MeanRun)
	fmt.Printf("  mean requested procs: %.1f (max %d)\n", s.MeanProcs, s.MaxJobProcs)
	fmt.Printf("  span: %.1f days\n", s.TotalSpan/86400)
	return nil
}

// cmdInspect replays the whole trace with a trained model and prints the
// per-feature rejection analysis of §5 of the paper.
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	name, swf, jobs, seed := traceFlags(fs)
	polName := fs.String("policy", "SJF", "base scheduling policy")
	metric := fs.String("metric", "bsld", "metric the model was trained for")
	backfill := fs.Bool("backfill", false, "enable EASY backfilling")
	model := fs.String("model", "model.ckpt", "trained model or checkpoint path")
	fs.Parse(args)

	tr, err := loadTrace(*name, *swf, *jobs, *seed)
	if err != nil {
		return err
	}
	pol, err := sched.ForTrace(*polName, tr)
	if err != nil {
		return err
	}
	m, err := metrics.ParseMetric(*metric)
	if err != nil {
		return err
	}
	mod, err := core.LoadServable(*model, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	mod = mod.WithNormalizer(core.NormalizerForTrace(tr, m))
	img, err := core.ReplayWhole(mod, core.EvalConfig{
		Trace: tr, Policy: pol, Metric: m, Backfill: *backfill, Seed: *seed,
	})
	if err != nil {
		return err
	}
	flight, err := explain.ReadFTrace(bytes.NewReader(img))
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d jobs with %s features: ", tr.Len(), mod.Mode)
	return explain.WriteFeatureCDFs(os.Stdout, flight.FeatureCDFs())
}

// cmdExplain queries a recorded decision flight trace: the offline half of
// the flight recorder, answering "why was job X rejected" from the binary
// .ftrace file a train/eval -flight run (or inspectord) wrote, or from its
// JSONL rendering (-convert, /v1/trace/snapshot). The format is sniffed from
// the file's leading bytes, so every query flag works on both.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	in := fs.String("in", "flight.ftrace", "flight-recorder trace to read (binary .ftrace or its JSONL rendering, sniffed)")
	convert := fs.String("convert", "", "convert a binary .ftrace trace to flight-recorder JSONL at this path (\"-\" for stdout)")
	job := fs.Int("job", -1, "print every decision about this job ID")
	window := fs.String("window", "", "print decisions in a simulation-time window T0:T1 (seconds)")
	topRejected := fs.Int("top-rejected", 0, "print the N most-rejected jobs")
	featureStats := fs.Bool("feature-stats", false, "print per-feature accept/reject means and deltas (the §5 reject attribution)")
	fs.Parse(args)

	if *convert != "" {
		return convertTrace(*in, *convert)
	}
	tr, err := explain.ReadTraceFile(*in)
	if err != nil {
		return err
	}
	switch {
	case *job >= 0:
		recs := tr.JobTimeline(*job)
		if len(recs) == 0 {
			fmt.Printf("no decisions about job %d in %s\n", *job, *in)
			return nil
		}
		return explain.WriteRecords(os.Stdout, recs)
	case *window != "":
		t0s, t1s, ok := strings.Cut(*window, ":")
		if !ok {
			return fmt.Errorf("-window wants T0:T1, got %q", *window)
		}
		t0, err0 := strconv.ParseFloat(t0s, 64)
		t1, err1 := strconv.ParseFloat(t1s, 64)
		if err0 != nil || err1 != nil || !(t1 > t0) { // !(>) refuses a NaN bound too
			return fmt.Errorf("-window wants numeric T0:T1 with T1 > T0, got %q", *window)
		}
		return explain.WriteRecords(os.Stdout, tr.Window(t0, t1))
	case *topRejected > 0:
		return explain.WriteTopRejected(os.Stdout, tr.TopRejected(*topRejected))
	case *featureStats:
		stats, acc, rej := tr.FeatureStats()
		return explain.WriteFeatureStats(os.Stdout, stats, acc, rej)
	default:
		rejects := 0
		for _, r := range tr.Records {
			if r.Rejected {
				rejects++
			}
		}
		mode := "(no header)"
		if tr.Header != nil {
			mode = tr.Header.Mode
		}
		fmt.Printf("%s: %d decisions (%d rejected), %d spans, %s features\n",
			*in, len(tr.Records), rejects, len(tr.Spans), mode)
		fmt.Println("use -job, -window, -top-rejected or -feature-stats to drill in")
		return nil
	}
}

// convertTrace decodes a binary .ftrace flight trace to the canonical
// flight-recorder JSONL. A corrupt or truncated input converts the valid
// prefix and then reports the error (non-zero exit), so partial recoveries
// are kept but never mistaken for complete traces.
func convertTrace(in, out string) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	w := os.Stdout
	if out != "-" {
		w, err = os.Create(out)
		if err != nil {
			return err
		}
		defer w.Close()
	}
	if err := explain.ConvertFTrace(f, w); err != nil {
		return fmt.Errorf("convert %s: %w", in, err)
	}
	if out != "-" {
		if err := w.Close(); err != nil {
			return err
		}
		fmt.Printf("converted %s to %s\n", in, out)
	}
	return nil
}
