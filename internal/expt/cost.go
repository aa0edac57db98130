package expt

import (
	"fmt"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/sched"
	"schedinspector/internal/sim"
	"schedinspector/internal/workload"
)

// Cost reproduces the §4.6 computational-cost analysis: wall-clock time per
// training epoch (the paper trains ~35 minutes total on its setup) and the
// per-decision inference latency (the paper reports 0.7 ms; this pure-Go
// 938-parameter MLP is far below that).
func Cost(o Options) error {
	o = o.withDefaults()
	fmt.Fprintln(o.Out, "§4.6: computational cost")
	fmt.Fprintln(o.Out, "(paper: ~35 min training, 0.7 ms inference per decision)")

	tr, err := o.trace("SDSC-SP2")
	if err != nil {
		return err
	}
	trainer, err := core.NewTrainer(core.TrainConfig{
		Trace: tr, Policy: sched.SJF(), Metric: metrics.BSLD,
		SeqLen: o.SeqLen, Batch: o.Batch, Seed: o.Seed + 1, Workers: o.Workers,
	})
	if err != nil {
		return err
	}
	epochs := min(o.Epochs, 5)
	t0 := time.Now()
	if _, err := trainer.Train(epochs, nil); err != nil {
		return err
	}
	perEpoch := time.Since(t0) / time.Duration(epochs)
	fmt.Fprintf(o.Out, "  training: %v per epoch (%d trajectories x %d jobs); a %d-epoch run takes ~%v\n",
		perEpoch.Round(time.Millisecond), o.Batch, o.SeqLen, o.Epochs,
		(perEpoch * time.Duration(o.Epochs)).Round(time.Second))

	// Inference: time greedy decisions over a fixed scheduling state.
	insp := trainer.Inspector().Greedy()
	st := &sim.State{
		Job:     workload.Job{Est: 3600, Procs: 16},
		JobWait: 120, FreeProcs: 64, TotalProcs: 128, Runnable: true,
		Queue: []sim.QueueItem{{Wait: 60, Est: 600, Procs: 4}, {Wait: 10, Est: 7200, Procs: 32}},
	}
	const n = 200000
	t0 = time.Now()
	for i := 0; i < n; i++ {
		insp(st)
	}
	perDecision := time.Since(t0) / n
	fmt.Fprintf(o.Out, "  inference: %v per scheduling decision (%d-parameter policy network)\n",
		perDecision, trainer.Inspector().Agent.Policy.NumParams())
	return nil
}
