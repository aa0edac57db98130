// Command expreport regenerates the paper's evaluation: every table and
// figure of "SchedInspector" (HPDC '22), printed as text reports.
//
// Usage:
//
//	expreport                     # run everything at report scale
//	expreport -exp fig4,table5    # run selected experiments
//	expreport -list               # list experiment names
//	expreport -full               # paper-scale settings (slow)
//	expreport -tiny               # smoke-test scale (seconds)
//
// Scale can also be tuned directly with -jobs, -epochs, -batch, -seqlen,
// -eval-seqs and -eval-seqlen.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"schedinspector/internal/expt"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		exps    = flag.String("exp", "all", "comma-separated experiment names, or 'all'")
		full    = flag.Bool("full", false, "paper-scale settings (batch 100, 45 epochs, 50x256 eval; slow)")
		tiny    = flag.Bool("tiny", false, "smoke-test scale (seconds per experiment)")
		verbose = flag.Bool("v", false, "print every training epoch")

		jobs     = flag.Int("jobs", 0, "jobs per generated trace (0 = preset default)")
		epochs   = flag.Int("epochs", 0, "training epochs")
		batch    = flag.Int("batch", 0, "trajectories per training epoch")
		seqLen   = flag.Int("seqlen", 0, "jobs per training trajectory")
		evalSeqs = flag.Int("eval-seqs", 0, "sampled test sequences")
		evalLen  = flag.Int("eval-seqlen", 0, "jobs per test sequence")
		seed     = flag.Int64("seed", 0, "base RNG seed")
		workers  = flag.Int("workers", 0, "rollout worker goroutines (0 = one per CPU); results are identical at any count")
		curves   = flag.String("curves", "", "plot learning curves from the epoch spans of a training flight trace (.ftrace or its JSONL) and exit (see schedinspect train -flight)")
		rejects  = flag.String("rejects", "", "plot reject rate vs utilization from a decision flight trace and exit (see schedinspect train/eval -flight)")
	)
	flag.Parse()
	if *tiny && *full {
		fmt.Fprintln(os.Stderr, "expreport: -tiny and -full select different scales; give one of them")
		os.Exit(2)
	}

	if *curves != "" {
		if err := expt.PlotCurves(os.Stdout, *curves); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *rejects != "" {
		if err := expt.PlotRejects(os.Stdout, *rejects); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 1, ' ', 0)
		for _, e := range expt.All() {
			fmt.Fprintf(tw, "%s\t%s\n", e.Name, e.Title)
		}
		tw.Flush()
		return
	}

	var o expt.Options
	switch {
	case *tiny:
		o = expt.Tiny(os.Stdout)
	case *full:
		o = expt.Options{Jobs: 20000, Epochs: 45, Batch: 100, SeqLen: 128, EvalSequences: 50, EvalSeqLen: 256}
	}
	o.Out = os.Stdout
	o.Verbose = *verbose
	if *jobs != 0 {
		o.Jobs = *jobs
	}
	if *epochs != 0 {
		o.Epochs = *epochs
	}
	if *batch != 0 {
		o.Batch = *batch
	}
	if *seqLen != 0 {
		o.SeqLen = *seqLen
	}
	if *evalSeqs != 0 {
		o.EvalSequences = *evalSeqs
	}
	if *evalLen != 0 {
		o.EvalSeqLen = *evalLen
	}
	if *seed != 0 {
		o.Seed = *seed
	}
	o.Workers = *workers

	var selected []expt.Experiment
	if *exps == "all" {
		selected = expt.All()
	} else {
		for _, name := range strings.Split(*exps, ",") {
			e, err := expt.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s: %s ===\n", e.Name, e.Title)
		t0 := time.Now()
		if err := e.Run(o); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n", e.Name, time.Since(t0).Round(time.Second))
	}
}
