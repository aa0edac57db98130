package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/explain"
	"schedinspector/internal/online"
	"schedinspector/internal/sched"
	"schedinspector/internal/serve"
)

// neverPromote is a margin no candidate clears, so every cycle does the
// same work: tail, reconstruct, retrain, two shadow evaluations, reject.
const neverPromote = 1e18

// onlineSeed seeds the decisions the ring is filled with and the loop's
// per-cycle streams. It is a constant for the reason trainSeed is: retrain
// cost follows the replay window and the seed. With the ring filled from the
// -seed corpus, runs on one seed read a cycle of 0.90, 0.96 and 0.93 s and
// runs on another, taken in turn with them, 1.11, 1.06 and 0.99 s.
const onlineSeed = 1

// onlineRig is an in-process handler with a loop attached.
type onlineRig struct {
	h    *serve.Handler
	loop *online.Loop
	reqs []request
	next int
}

func newOnlineRig(b *bench, sz sizes, reqs []request) (*onlineRig, error) {
	h := serve.NewHandler(b.env.ref.Clone(rand.New(rand.NewSource(daemonRNG))))
	loop, err := online.New(online.Config{
		Source: h.TraceRing(), Serving: h, Policy: sched.SJF(), Margin: neverPromote,
		MinWindow: sz.onlineMinWindow, MaxWindow: sz.onlineMaxWindow,
		Epochs: sz.onlineEpochs, Batch: sz.onlineBatch, SeqLen: sz.onlineSeqLen,
		ShadowSequences: sz.onlineShadowSeqs, ShadowSeqLen: sz.onlineShadowLen,
		Workers: b.nproc, Seed: onlineSeed,
	})
	if err != nil {
		h.Close()
		return nil, err
	}
	return &onlineRig{h: h, loop: loop, reqs: reqs}, nil
}

// inject serves n inspect requests through ServeHTTP, which records each
// decision into the handler's flight ring. Untimed.
func (r *onlineRig) inject(n int) error {
	for i := 0; i < n; i++ {
		body := r.reqs[r.next%len(r.reqs)].body
		r.next++
		rec := httptest.NewRecorder()
		r.h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/inspect", bytes.NewReader(body)))
		if rec.Code != 200 {
			return fmt.Errorf("inject: handler answered %d: %s", rec.Code, rec.Body.String())
		}
	}
	return nil
}

// cycle injects fresh decisions, runs one timed RunCycle between two
// calibration readings and checks that it ended in a rejected verdict with
// the serving generation unchanged.
func (r *onlineRig) cycle(ctx context.Context, inject int, id int, tr *tracer, o *outcome, ops *opTimes) error {
	if err := r.inject(inject); err != nil {
		return err
	}
	before := len(r.loop.History())
	cal := calibrate()
	s := tr.begin("online.run_cycle", "online", -1, id)
	t0 := time.Now()
	r.loop.RunCycle(ctx)
	secs := time.Since(t0).Seconds()
	tr.end(s)
	ops.add(secs, cal, calibrate())
	o.attempted++
	hist := r.loop.History()
	st := r.loop.Status()
	switch {
	case len(hist) == 0 || hist[len(hist)-1].Verdict != "rejected" || (len(hist) == before && before < online.DefaultHistoryCap):
		o.fail(1, "cycle %d did not end in a rejected verdict (status %+v)", id, st)
	case st.ServingGeneration != 1:
		o.fail(1, "cycle %d moved the serving generation to %d", id, st.ServingGeneration)
	}
	return nil
}

// onlineKinds is the number of cycles in an online block: every block
// starts from a fresh handler and loop, fills the ring with the same
// requests and runs the same cycles, so cycle k does identical work in
// every block.
const onlineKinds = 2

// onlineBlock builds a fresh rig, fills its ring and runs onlineKinds
// cycles, adding their times to ops. The rig is returned open.
func onlineBlock(ctx context.Context, b *bench, sz sizes, reqs []request, block int, tr *tracer, o *outcome, ops *opTimes) (*onlineRig, error) {
	rig, err := newOnlineRig(b, sz, reqs)
	if err != nil {
		return nil, err
	}
	err = rig.inject(sz.onlineFill - sz.onlineInject)
	for k := 0; k < onlineKinds && err == nil; k++ {
		if err = rig.cycle(ctx, sz.onlineInject, block*onlineKinds+k, tr, o, ops); err == nil {
			err = ctx.Err()
		}
	}
	if err != nil {
		rig.h.Close()
		return nil, err
	}
	return rig, nil
}

// onlineBlocks runs blocks until budget has elapsed (at least one) and
// returns the cycle times in run order and the last block's rig, still open,
// for the stage probes.
func onlineBlocks(ctx context.Context, b *bench, sz sizes, budget time.Duration, tr *tracer, o *outcome) (*onlineRig, opTimes, error) {
	var last *onlineRig
	var ops opTimes
	reqs := genInspectCorpus(b.env.trace, onlineSeed, sz.shallowReqs, 0, 8)
	deadline := time.Now().Add(budget)
	for block := 0; block == 0 || time.Now().Before(deadline); block++ {
		if last != nil {
			last.h.Close()
		}
		rig, err := onlineBlock(ctx, b, sz, reqs, block, tr, o, &ops)
		if err != nil {
			return nil, ops, err
		}
		last = rig
	}
	return last, ops, nil
}

// runOnline is the untraced pass of online-cycle. ops_per_s counts replayed
// decisions: the window a cycle tails, reconstructs and trains on.
func runOnline(ctx context.Context, b *bench, sz sizes, seconds time.Duration) (*outcome, error) {
	o := &outcome{}
	rig, ops, err := onlineBlocks(ctx, b, sz, seconds, nil, o)
	if err != nil {
		return nil, err
	}
	defer rig.h.Close()
	return o, blockOutcome(o, ops, onlineKinds, float64(rig.loop.Status().WindowRecords))
}

// layersOnline is the traced pass of the online group: cycles with a span
// each, then the public equivalents of a cycle's stages timed on the same
// ring and window.
func layersOnline(ctx context.Context, b *bench, sz sizes, budget time.Duration, tr *tracer, out values) (*outcome, error) {
	o := &outcome{}
	rig, plain, err := onlineBlocks(ctx, b, sz, 0, nil, o)
	if err != nil {
		return nil, err
	}
	rig.h.Close()
	rig, secs, err := onlineBlocks(ctx, b, sz, budget/2, tr, o)
	if err != nil {
		return nil, err
	}
	defer rig.h.Close()
	cycle := median(medianOfKinds(secs.raw, onlineKinds))
	if tr != nil {
		out["trace_overhead_ratio"] = cycle / median(medianOfKinds(plain.raw, onlineKinds))
	}

	// tail: ring snapshot + decode of every decision in it.
	s := tr.begin("online.tail", "explain", -1, 0)
	t0 := time.Now()
	img := rig.h.TraceRing().Snapshot()
	recs, _, err := explain.TailDecisions(img, -1)
	tail := time.Since(t0).Seconds()
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("tail: %w", err)
	}
	// The loop's window also holds what the ring has since evicted; the
	// probe replays the ring's content up to the same size.
	window := rig.loop.Status().WindowRecords
	for len(recs) < window {
		recs = append(recs, recs[:min(len(recs), window-len(recs))]...)
	}
	hold := len(recs) / 5
	s = tr.begin("online.reconstruct", "online", -1, 0)
	t0 = time.Now()
	trainTr, err1 := online.ReconstructTrace(recs[:len(recs)-hold], "probe-train")
	holdTr, err2 := online.ReconstructTrace(recs[len(recs)-hold:], "probe-holdout")
	reconstruct := time.Since(t0).Seconds()
	tr.end(s)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("reconstruct: %v, %v", err1, err2)
	}

	serving, _ := rig.h.Current()
	s = tr.begin("online.retrain", "core", -1, 0)
	t0 = time.Now()
	t, err := core.NewTrainerFrom(core.TrainConfig{
		Trace: trainTr, Policy: sched.SJF(), Metric: serving.Norm.Metric, FeatureMode: serving.Mode,
		SeqLen: min(sz.onlineSeqLen, trainTr.Len()), Batch: sz.onlineBatch, LR: 1e-4, Seed: onlineSeed,
		TrainFrac: 1, MaxInterval: serving.Norm.MaxInterval, MaxRejections: serving.Norm.MaxRejections,
		Workers: b.nproc,
	}, serving)
	if err == nil {
		_, err = t.Train(sz.onlineEpochs, nil)
	}
	retrain := time.Since(t0).Seconds()
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("retrain: %w", err)
	}

	s = tr.begin("online.shadow_eval", "core", -1, 0)
	t0 = time.Now()
	for _, insp := range []*core.Inspector{t.Inspector(), serving} {
		_, err := core.Evaluate(insp, core.EvalConfig{
			Trace: holdTr, Policy: sched.SJF(), Metric: insp.Norm.Metric,
			Sequences: sz.onlineShadowSeqs, SeqLen: min(sz.onlineShadowLen, holdTr.Len()), TestFrom: 1e-12,
			Seed: onlineSeed, MaxInterval: insp.Norm.MaxInterval, MaxRejections: insp.Norm.MaxRejections,
			Workers: b.nproc,
		})
		if err != nil {
			return nil, fmt.Errorf("shadow eval: %w", err)
		}
	}
	shadow := time.Since(t0).Seconds()
	tr.end(s)

	out["online.tail_s"] = tail
	out["online.reconstruct_s"] = reconstruct
	out["online.retrain_s"] = retrain
	out["online.shadow_eval_s"] = shadow
	out["online.unattributed_s"] = cycle - tail - reconstruct - retrain - shadow
	out["online.ring_image_bytes"] = float64(len(img))
	out["online.window_size"] = float64(window)
	return o, nil
}
