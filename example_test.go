package schedinspector_test

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"schedinspector"
)

// The printed lines are counts, start times and comparisons, never trained
// weights or metrics: those may differ in the last bits between
// architectures (fused multiply-add), and an Output block must not.

// Example trains an inspector over SJF for bounded slowdown and evaluates
// it on held-out sequences of the same workload, at a tiny scale. The
// held-out gain is res.MeanImprovement(schedinspector.BSLD); res.Base and
// res.Insp hold the per-sequence summaries without and with the inspector.
func Example() {
	trace, err := schedinspector.GenerateTrace("Lublin", 3000, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d jobs on %d processors\n", trace.Name, trace.Len(), trace.MaxProcs)

	trainer, err := schedinspector.NewTrainer(schedinspector.TrainConfig{
		Trace: trace, Policy: schedinspector.SJF(), Metric: schedinspector.BSLD,
		Batch: 4, SeqLen: 64, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := trainer.Train(2, func(st schedinspector.EpochStats) {
		fmt.Printf("epoch %d trained\n", st.Epoch)
	}); err != nil {
		log.Fatal(err)
	}

	res, err := schedinspector.Evaluate(trainer.Inspector(), schedinspector.EvalConfig{
		Trace: trace, Policy: schedinspector.SJF(), Metric: schedinspector.BSLD,
		Sequences: 3, SeqLen: 64, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evaluated %d sequences without and %d with the inspector\n", len(res.Base), len(res.Insp))
	// Output:
	// Lublin: 3000 jobs on 256 processors
	// epoch 1 trained
	// epoch 2 trained
	// evaluated 3 sequences without and 3 with the inspector
}

// ExampleSimulate shows EASY backfilling on an 8-processor cluster: a wide
// job waits behind a running one, and a short narrow job slips into the
// idle window in front of it only when backfilling is on. The OnEvent hook
// collects what the simulator did.
func ExampleSimulate() {
	jobs := []schedinspector.Job{
		{ID: 1, Submit: 0, Run: 3600, Est: 3600, Procs: 6},
		{ID: 2, Submit: 60, Run: 3600, Est: 3600, Procs: 8}, // needs the whole cluster
		{ID: 3, Submit: 120, Run: 600, Est: 600, Procs: 2},  // short and narrow
	}
	for _, backfill := range []bool{false, true} {
		var events []schedinspector.SimEvent
		res, err := schedinspector.Simulate(jobs, schedinspector.SimConfig{
			MaxProcs: 8, Policy: schedinspector.FCFS(), Backfill: backfill,
			OnEvent: func(e schedinspector.SimEvent) { events = append(events, e) },
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("backfill=%v: %d backfilled\n", backfill, res.Backfills)
		for _, r := range res.Results {
			fmt.Printf("  job %d starts at %4.0f s\n", r.ID, r.Start)
		}
		if backfill {
			for _, e := range events {
				fmt.Printf("  %-11s t=%4.0f job %d\n", e.Kind, e.Time, e.JobID)
			}
		}
	}
	// Output:
	// backfill=false: 0 backfilled
	//   job 1 starts at    0 s
	//   job 2 starts at 3600 s
	//   job 3 starts at 7200 s
	// backfill=true: 1 backfilled
	//   job 1 starts at    0 s
	//   job 3 starts at  120 s
	//   job 2 starts at 3600 s
	//   sched_point t=   0 job 1
	//   job_start   t=   0 job 1
	//   sched_point t=  60 job 2
	//   backfill    t= 120 job 3
	//   job_start   t= 120 job 3
	//   job_end     t= 720 job 3
	//   job_end     t=3600 job 1
	//   job_start   t=3600 job 2
	//   job_end     t=7200 job 2
}

// ExampleParseSWF reads the three jobs of ExampleSimulate from Standard
// Workload Format and schedules them with backfilling.
func ExampleParseSWF() {
	const swf = `; MaxProcs: 8
1   0 -1 3600 6 -1 -1 6 3600 -1 1 1 1 -1 1 1 -1 -1
2  60 -1 3600 8 -1 -1 8 3600 -1 1 1 1 -1 1 1 -1 -1
3 120 -1  600 2 -1 -1 2  600 -1 1 1 1 -1 1 1 -1 -1
`
	trace, err := schedinspector.ParseSWF(strings.NewReader(swf), "demo")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d jobs on %d processors\n", trace.Name, trace.Len(), trace.MaxProcs)
	res, err := schedinspector.Simulate(trace.Jobs, schedinspector.SimConfig{
		MaxProcs: trace.MaxProcs, Policy: schedinspector.FCFS(), Backfill: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Results {
		fmt.Printf("job %d starts at %4.0f s\n", r.ID, r.Start)
	}
	// Output:
	// demo: 3 jobs on 8 processors
	// job 1 starts at    0 s
	// job 3 starts at  120 s
	// job 2 starts at 3600 s
}

// ExampleLoadInspectorFile saves an inspector, loads it back, and checks
// that the loaded model makes the same greedy verdicts on a 256-job
// sequence.
func ExampleLoadInspectorFile() {
	trace, err := schedinspector.GenerateTrace("Lublin", 3000, 5)
	if err != nil {
		log.Fatal(err)
	}
	trainer, err := schedinspector.NewTrainer(schedinspector.TrainConfig{
		Trace: trace, Policy: schedinspector.SJF(), Metric: schedinspector.BSLD, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "schedinspector-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.ckpt")
	if err := trainer.Inspector().SaveFile(path); err != nil {
		log.Fatal(err)
	}
	loaded, err := schedinspector.LoadInspectorFile(path, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}

	jobs := trace.Window(1000, 256)
	cfg := schedinspector.SimConfig{MaxProcs: trace.MaxProcs, Policy: schedinspector.SJF()}
	var runs [2]schedinspector.SimResult
	for i, insp := range []*schedinspector.Inspector{trainer.Inspector(), loaded} {
		cfg.Inspector = insp.Greedy()
		if runs[i], err = schedinspector.Simulate(jobs, cfg); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("same verdicts:", reflect.DeepEqual(runs[0], runs[1]))
	// Output:
	// same verdicts: true
}
