// Command tracegen emits synthetic job traces in Standard Workload Format.
//
// Usage:
//
//	tracegen -trace SDSC-SP2 -jobs 20000 -seed 42 -o sdsc.swf
//	tracegen -custom -procs 512 -interval 300 -est 7200 -res 16 -o custom.swf
//
// Built-in traces reproduce the aggregate statistics of the logs the
// SchedInspector paper evaluates on (Table 2); -custom exposes the
// generator's knobs directly.
package main

import (
	"flag"
	"fmt"
	"os"

	"schedinspector/internal/workload"
)

func main() {
	var (
		name   = flag.String("trace", "SDSC-SP2", "built-in trace (SDSC-SP2, CTC-SP2, HPC2N, Lublin)")
		jobs   = flag.Int("jobs", 20000, "number of jobs")
		seed   = flag.Int64("seed", 42, "generator seed")
		out    = flag.String("o", "", "output file (default stdout)")
		custom = flag.Bool("custom", false, "use the custom generator instead of a built-in trace")

		procs    = flag.Int("procs", 256, "custom: cluster size")
		interval = flag.Float64("interval", 600, "custom: mean arrival interval (s)")
		est      = flag.Float64("est", 7200, "custom: mean estimated runtime (s)")
		res      = flag.Float64("res", 16, "custom: mean requested processors")
		burst    = flag.Float64("burst", 0.45, "custom: arrival burstiness (gamma shape; 1 = Poisson)")
		diurnal  = flag.Float64("diurnal", 0.7, "custom: day/night cycle strength 0..1")
	)
	flag.Parse()

	var tr *workload.Trace
	if *custom {
		switch {
		case *procs <= 0:
			usageError("-procs must be > 0, got %d", *procs)
		case !(*interval > 0):
			usageError("-interval must be > 0, got %v", *interval)
		case !(*est > 0):
			usageError("-est must be > 0, got %v", *est)
		case !(*res > 0):
			usageError("-res must be > 0, got %v", *res)
		case *jobs < 0:
			usageError("-jobs must be >= 0, got %d", *jobs)
		}
		tr = workload.Generate(workload.SynthConfig{
			Name: "custom", MaxProcs: *procs, Jobs: *jobs, Seed: *seed,
			Interval: *interval, MeanEst: *est, Procs: *res,
			Burst: *burst, Diurnal: *diurnal,
		})
	} else {
		t, err := workload.ByName(*name, *jobs, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(2)
		}
		tr = t
	}

	if *out != "" {
		// WriteSWFFile gzips when the path ends in .gz
		if err := workload.WriteSWFFile(*out, tr); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
	} else if err := workload.WriteSWF(os.Stdout, tr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	s := workload.ComputeStats(tr)
	fmt.Fprintf(os.Stderr, "tracegen: %d jobs, cluster %d, interval %.0f s, est %.0f s, res %.1f\n",
		s.Jobs, s.MaxProcs, s.MeanInterval, s.MeanEst, s.MeanProcs)
}

// usageError reports a flag value the generator cannot use and exits 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(2)
}
