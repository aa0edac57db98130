package expt

import (
	"fmt"
	"time"

	"schedinspector/internal/metrics"
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

	// Trained outside the memo, whose hit would time nothing. The timed
	// window includes generating the trace: under 1 % of five epochs at
	// report scale.
	timed := o
	timed.Epochs = min(o.Epochs, 5)
	t0 := time.Now()
	trainer, _, _, err := timed.trainUncached(trainSpec{traceName: "SDSC-SP2", policy: "SJF", metric: metrics.BSLD})
	if err != nil {
		return err
	}
	perEpoch := time.Since(t0) / time.Duration(timed.Epochs)
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
