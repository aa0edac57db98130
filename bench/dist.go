package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"schedinspector/internal/core"
	"schedinspector/internal/dist"
	"schedinspector/internal/obs"
)

const distWorld = 2

// stateSum is the sha-256 of the trainer's canonical checkpoint encoding:
// weights, Adam moments and epoch counter.
func stateSum(t *core.Trainer) (string, error) {
	payload, err := t.Checkpoint().Encode()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(payload)), nil
}

// fleetBlock is what one block of distributed epochs observed.
type fleetBlock struct {
	epoch [][]float64 // [rank][epoch] seconds of Worker.RunEpoch
	cals  []float64   // calibration readings: cals[e] before epoch e, cals[e+1] after it
	sums  []string    // per-rank state digest after the block
	regs  []*dist.Metrics
}

// runFleet runs epochs distributed epochs on a fresh world of distWorld
// in-process workers, one goroutine per rank and Workers = 1 each, meshed
// over unix sockets in a directory of their own. The ranks take turns on
// the one CPU the benchmark runs on (affinity.go), so an epoch costs the
// work of both plus the mesh. Before every epoch and after the last the
// ranks meet at a gate where rank 0 takes a calibration reading while the
// others wait.
func runFleet(ctx context.Context, b *bench, cfg core.TrainConfig, epochs, block int, tr *tracer) (*fleetBlock, error) {
	dir, err := os.MkdirTemp(b.env.runDir, "mesh-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Relative socket paths: sun_path holds about a hundred bytes and the
	// checkout may sit under a long directory.
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, dir); err == nil && len(rel) < len(dir) {
			dir = rel
		}
	}
	peers := make([]string, distWorld)
	for r := range peers {
		peers[r] = filepath.Join(dir, fmt.Sprintf("r%d.sock", r))
	}
	fb := &fleetBlock{epoch: make([][]float64, distWorld), sums: make([]string, distWorld), regs: make([]*dist.Metrics, distWorld)}
	// gate is cancelled with the block, so a rank that fails does not leave
	// the others waiting at it.
	gctx, failed := context.WithCancel(ctx)
	defer failed()
	arrive, release := make(chan struct{}), make(chan struct{})
	gate := func(r int) {
		if r != 0 {
			select {
			case arrive <- struct{}{}:
				select {
				case <-release:
				case <-gctx.Done():
				}
			case <-gctx.Done():
			}
			return
		}
		for i := 1; i < distWorld; i++ {
			select {
			case <-arrive:
			case <-gctx.Done():
				return
			}
		}
		fb.cals = append(fb.cals, calibrate())
		for i := 1; i < distWorld; i++ {
			select {
			case release <- struct{}{}:
			case <-gctx.Done():
				return
			}
		}
	}
	errs := make([]error, distWorld)
	tracers := make([]*tracer, distWorld)
	var wg sync.WaitGroup
	for r := 0; r < distWorld; r++ {
		fb.regs[r] = dist.NewMetrics(obs.NewRegistry())
		if tr != nil {
			tracers[r] = newTracer(tr.t0, epochs)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if errs[r] != nil {
					failed()
				}
			}()
			c := cfg
			c.Workers, c.World, c.Rank, c.Peers = 1, distWorld, r, peers
			t, err := core.NewTrainer(c)
			if err != nil {
				errs[r] = err
				return
			}
			w, err := dist.NewWorker(ctx, t, dist.Options{Network: "unix", DialTimeout: 10 * time.Second,
				ExchangeTimeout: time.Minute, Metrics: fb.regs[r]})
			if err != nil {
				errs[r] = err
				return
			}
			defer w.Close()
			for e := 0; e < epochs; e++ {
				gate(r)
				s := tracers[r].begin(fmt.Sprintf("dist.run_epoch.rank%d", r), "dist", -1, block*epochs+e)
				t0 := time.Now()
				_, err := w.RunEpoch()
				fb.epoch[r] = append(fb.epoch[r], time.Since(t0).Seconds())
				tracers[r].end(s)
				if err != nil {
					errs[r] = err
					return
				}
			}
			gate(r)
			fb.sums[r], errs[r] = stateSum(t)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
		tr.merge(tracers[r])
	}
	return fb, nil
}

// slowest returns, per epoch, the slowest rank's time: the epoch is over
// when the last rank has applied the update.
func (fb *fleetBlock) slowest() []float64 {
	out := make([]float64, len(fb.epoch[0]))
	for _, ranks := range fb.epoch {
		for e, s := range ranks {
			if s > out[e] {
				out[e] = s
			}
		}
	}
	return out
}

// singleBlock trains epochs epochs on the plain single-process trainer and
// returns its per-epoch seconds and final state digest.
func singleBlock(cfg core.TrainConfig, epochs, workers int) ([]float64, string, error) {
	cfg.Workers = workers
	t, err := core.NewTrainer(cfg)
	if err != nil {
		return nil, "", err
	}
	var secs []float64
	for e := 0; e < epochs; e++ {
		t0 := time.Now()
		if _, err := t.RunEpoch(); err != nil {
			return nil, "", err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	sum, err := stateSum(t)
	return secs, sum, err
}

// fleetBlocks runs blocks of distributed epochs until budget has elapsed
// (at least one), checking after every block that both ranks hold
// byte-identical state and that it equals want, the single-process digest
// for the same config and epochs.
func fleetBlocks(ctx context.Context, b *bench, sz sizes, budget time.Duration, want string, tr *tracer, o *outcome) (epochs opTimes, blocks []*fleetBlock, err error) {
	cfg := b.trainConfig(sz, 1)
	deadline := time.Now().Add(budget)
	for block := 0; block == 0 || time.Now().Before(deadline); block++ {
		if ctx.Err() != nil {
			return epochs, nil, ctx.Err()
		}
		fb, err := runFleet(ctx, b, cfg, sz.blockEpochs, block, tr)
		if err != nil {
			return epochs, nil, err
		}
		o.attempted += sz.blockEpochs
		for r, s := range fb.sums {
			if s != want {
				o.fail(1, "block %d: rank %d state sha-256 %s differs from the single-process trainer's %s", block, r, s, want)
			}
		}
		for e, secs := range fb.slowest() {
			epochs.add(secs, fb.cals[e], fb.cals[e+1])
		}
		blocks = append(blocks, fb)
	}
	return epochs, blocks, nil
}

// runDist is the untraced pass of dist-2w. The single-process reference for
// the state check runs once, untimed, at Workers = nproc: any worker count
// yields the same bytes, and the timed Workers = 1 baseline belongs to the
// traced pass.
func runDist(ctx context.Context, b *bench, sz sizes, seconds time.Duration) (*outcome, error) {
	_, want, err := singleBlock(b.trainConfig(sz, 1), sz.blockEpochs, b.nproc)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	epochs, _, err := fleetBlocks(ctx, b, sz, seconds, want, nil, o)
	if err != nil {
		return nil, err
	}
	o.note("model state sha-256 %s on rank 0, rank 1 and the single-process trainer", want)
	return o, blockOutcome(o, epochs, sz.blockEpochs, float64(sz.trainBatch))
}

// layersDist is the traced pass of the dist group: the Workers = 1
// single-process baseline, the fleet with a dist.Metrics registry per rank
// and a span per rank and epoch, and the world's phases on their own
// (RolloutShard of each half, ApplyDeltas of the whole batch once per rank)
// to separate the mesh's overhead from the work it carries.
func layersDist(ctx context.Context, b *bench, sz sizes, budget time.Duration, tr *tracer, out values) (*outcome, error) {
	cfg := b.trainConfig(sz, 1)
	single, want, err := singleBlock(cfg, sz.blockEpochs, 1)
	if err != nil {
		return nil, err
	}
	o := &outcome{attempted: len(single)}
	plain, _, err := fleetBlocks(ctx, b, sz, 0, want, nil, o)
	if err != nil {
		return nil, err
	}
	epochs, blocks, err := fleetBlocks(ctx, b, sz, budget/2, want, tr, o)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		out["trace_overhead_ratio"] = median(medianOfKinds(epochs.raw, sz.blockEpochs)) / median(medianOfKinds(plain.raw, sz.blockEpochs))
	}
	n := float64(len(epochs.raw))
	var exch, strag, bytesSent, rounds float64
	for _, fb := range blocks {
		for _, m := range fb.regs {
			exch += m.ExchangeSeconds.Sum()
			strag += m.StragglerSeconds.Sum()
			bytesSent += m.BytesSent.Value()
			rounds += float64(m.ExchangeSeconds.Count())
		}
	}
	p50 := median(epochs.raw)
	out["dist.epoch_p50_s"] = p50
	out["dist.single_epoch_p50_s"] = median(single)
	out["dist.speedup"] = median(single) / p50
	// Waits are per rank (mean over ranks); bytes and frames are what the
	// whole world sent: every barrier round sends one frame to every peer.
	out["dist.exchange_wait_s_per_epoch"] = exch / distWorld / n
	out["dist.straggler_s_per_epoch"] = strag / distWorld / n
	out["dist.bytes_per_epoch"] = bytesSent / n
	out["dist.frames_per_epoch"] = rounds * (distWorld - 1) / n

	// The world's phases without the mesh. The ranks take turns on the one
	// CPU, so the fleet's epoch holds both halves of the rollout and the
	// update once per rank.
	t, err := core.NewTrainer(cfg)
	if err != nil {
		return nil, err
	}
	var shards, apply []float64
	half := sz.trainBatch / distWorld
	for e := 0; e < sz.blockEpochs; e++ {
		t.BeginEpoch()
		t0 := time.Now()
		lo, err := t.RolloutShard(0, half)
		if err != nil {
			return nil, err
		}
		hi, err := t.RolloutShard(half, sz.trainBatch)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := t.ApplyDeltas(append(lo, hi...)); err != nil {
			return nil, err
		}
		shards = append(shards, t1.Sub(t0).Seconds())
		apply = append(apply, time.Since(t1).Seconds())
	}
	out["dist.overhead_s"] = p50 - median(shards) - distWorld*median(apply)
	return o, nil
}
