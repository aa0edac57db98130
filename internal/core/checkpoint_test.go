package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/metrics"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

func saveModel(t *testing.T, tr *Trainer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Inspector().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func evalSummaries(t *testing.T, insp *Inspector, trace *workload.Trace) EvalResult {
	t.Helper()
	res, err := Evaluate(insp, EvalConfig{
		Trace: trace, Policy: sched.SJF(), Metric: metrics.BSLD,
		Sequences: 4, SeqLen: 64, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCheckpointResumeBitIdentical is the tentpole guarantee: training 2N
// epochs straight and training N epochs, "dying", and resuming from the
// checkpoint for N more produce bit-identical serialized models and
// identical evaluation results — at one worker and at many (the same
// invariant the workers=1≡workers=8 suite pins for parallelism).
func TestCheckpointResumeBitIdentical(t *testing.T) {
	trace := workload.SDSCSP2Like(3000, 7)
	for _, workers := range []int{1, 4} {
		cfg := TrainConfig{
			Trace: trace, Policy: sched.SJF(), Metric: metrics.BSLD,
			Batch: 6, SeqLen: 64, Seed: 11, Workers: workers,
		}

		// Uninterrupted: 4 epochs straight.
		straight, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		statsA, err := straight.Train(4, nil)
		if err != nil {
			t.Fatal(err)
		}
		modelA := saveModel(t, straight)

		// Interrupted: 2 epochs, checkpoint, drop the trainer (the "kill"),
		// rebuild from config, resume, 2 more epochs.
		dir := t.TempDir()
		first, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := first.Train(2, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := first.SaveCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
		first = nil

		resumed, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := resumed.ResumeLatest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Epoch != 2 {
			t.Fatalf("workers=%d: resumed checkpoint epoch %d, want 2", workers, ck.Epoch)
		}
		statsB, err := resumed.Train(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		modelB := saveModel(t, resumed)

		if !bytes.Equal(modelA, modelB) {
			t.Errorf("workers=%d: resumed model bytes differ from the uninterrupted run", workers)
		}
		// Post-resume epochs must match the straight run's epochs 3 and 4
		// stat for stat (wall clock aside).
		for i, b := range statsB {
			a := statsA[2+i]
			a.Seconds, b.Seconds = 0, 0
			if a != b {
				t.Errorf("workers=%d: epoch %d stats differ:\n  straight: %+v\n  resumed:  %+v",
					workers, a.Epoch, a, b)
			}
		}
		evA := evalSummaries(t, straight.Inspector(), trace)
		evB := evalSummaries(t, resumed.Inspector(), trace)
		if evA.Inspections != evB.Inspections || evA.Rejections != evB.Rejections {
			t.Errorf("workers=%d: eval counts differ: %d/%d vs %d/%d", workers,
				evA.Inspections, evA.Rejections, evB.Inspections, evB.Rejections)
		}
		for i := range evA.Base {
			if evA.Base[i] != evB.Base[i] || evA.Insp[i] != evB.Insp[i] {
				t.Errorf("workers=%d: eval sequence %d summaries differ", workers, i)
			}
		}
	}
}

// TestCheckpointTornWriteFallsBack covers the crash-during-save story: a
// truncated or corrupted newest checkpoint is rejected with a typed error
// and resume falls back to the previous good checkpoint.
func TestCheckpointTornWriteFallsBack(t *testing.T) {
	trace := workload.SDSCSP2Like(2500, 3)
	cfg := TrainConfig{
		Trace: trace, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 4, SeqLen: 64, Seed: 9,
	}
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := tr.Train(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	goodModel := saveModel(t, tr)
	if _, err := tr.Train(1, nil); err != nil {
		t.Fatal(err)
	}
	path2, err := tr.SaveCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func() []byte
	}{
		{"truncated header", func() []byte { return data[:10] }},
		{"truncated payload", func() []byte { return data[:len(data)/2] }},
		{"missing final bytes", func() []byte { return data[:len(data)-3] }},
		{"flipped payload bit", func() []byte {
			d := append([]byte(nil), data...)
			d[len(d)/2] ^= 0x01
			return d
		}},
		{"flipped magic", func() []byte {
			d := append([]byte(nil), data...)
			d[0] ^= 0xFF
			return d
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path2, tc.mut(), 0o644); err != nil {
				t.Fatal(err)
			}
			// Direct load: typed corruption error, never a partial state.
			if _, err := LoadTrainerCheckpoint(path2); !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("load of damaged checkpoint: err=%v, want ckpt.ErrCorrupt", err)
			}
			// Resume: silently falls back to the epoch-1 checkpoint.
			fresh, err := NewTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := fresh.ResumeLatest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Epoch != 1 {
				t.Fatalf("fell back to epoch %d, want 1", ck.Epoch)
			}
			if got := saveModel(t, fresh); !bytes.Equal(got, goodModel) {
				t.Error("fallback checkpoint did not restore the epoch-1 model")
			}
		})
	}

	// With every file damaged, resume reports "no checkpoint" rather than
	// loading garbage.
	entries, err := ckpt.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.WriteFile(e.Path, []byte("scrambled"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.ResumeLatest(dir); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("all-corrupt resume: err=%v, want ckpt.ErrNoCheckpoint", err)
	}
}

// TestResumeRejectsMismatchedConfig: a checkpoint from a different seed,
// feature mode or architecture must be refused — installing it would
// silently break determinism or crash mid-epoch.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	trace := workload.SDSCSP2Like(2500, 4)
	base := TrainConfig{
		Trace: trace, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 4, SeqLen: 64, Seed: 9,
	}
	src, err := NewTrainer(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Train(1, nil); err != nil {
		t.Fatal(err)
	}
	c := src.Checkpoint()

	cases := []struct {
		name string
		mut  func(*TrainConfig)
		want string
	}{
		{"seed", func(cfg *TrainConfig) { cfg.Seed = 10 }, "seed"},
		{"feature mode", func(cfg *TrainConfig) { cfg.FeatureMode = CompactedFeatures }, "feature mode"},
		{"architecture", func(cfg *TrainConfig) { cfg.Hidden = []int{16, 16} }, "layers"},
		{"metric", func(cfg *TrainConfig) { cfg.Metric = metrics.Wait }, "normalizer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			dst, err := NewTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = dst.Resume(c)
			if err == nil {
				t.Fatal("mismatched checkpoint accepted")
			}
			if !contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// TestTrainCtxInterruptAndResume drives the interruption path end to end
// in-process: cancel after the first epoch, observe ErrInterrupted plus a
// checkpoint on disk, resume into a fresh trainer and finish — matching
// the uninterrupted run bit for bit.
func TestTrainCtxInterruptAndResume(t *testing.T) {
	trace := workload.SDSCSP2Like(2500, 6)
	cfg := TrainConfig{
		Trace: trace, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 4, SeqLen: 64, Seed: 13,
	}

	straight, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := straight.Train(3, nil); err != nil {
		t.Fatal(err)
	}
	want := saveModel(t, straight)

	dir := t.TempDir()
	victim, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stats, err := victim.TrainCtx(ctx, 3, CheckpointConfig{Dir: dir}, func(EpochStats) { cancel() })
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("TrainCtx err=%v, want ErrInterrupted", err)
	}
	if len(stats) != 1 {
		t.Fatalf("interrupted run reported %d epochs, want 1", len(stats))
	}

	resumed, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := resumed.ResumeLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 1 {
		t.Fatalf("checkpoint epoch %d, want 1", ck.Epoch)
	}
	if _, err := resumed.TrainCtx(context.Background(), 2, CheckpointConfig{Dir: dir}, nil); err != nil {
		t.Fatal(err)
	}
	if got := saveModel(t, resumed); !bytes.Equal(got, want) {
		t.Error("interrupted+resumed model differs from the uninterrupted run")
	}
	// Completion wrote a final checkpoint at epoch 3.
	c, _, err := LatestTrainerCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch != 3 {
		t.Errorf("final checkpoint epoch %d, want 3", c.Epoch)
	}
}

// TestTrainCtxInterruptSaveFailure: when interruption's final checkpoint
// save fails, the returned error must NOT match ErrInterrupted — callers
// read ErrInterrupted as "progress is safe on disk" (the CLI prints a
// resume hint and exits 0), so a disk-full or permission error here has to
// surface as a plain failure.
func TestTrainCtxInterruptSaveFailure(t *testing.T) {
	tr, err := NewTrainer(TrainConfig{
		Trace: workload.SDSCSP2Like(2500, 6), Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 2, SeqLen: 64, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A regular file where the checkpoint directory should be makes
	// MkdirAll (and therefore every save) fail.
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = tr.TrainCtx(ctx, 3, CheckpointConfig{Dir: blocker}, nil)
	if err == nil {
		t.Fatal("TrainCtx reported success with an unwritable checkpoint dir")
	}
	if errors.Is(err, ErrInterrupted) {
		t.Fatalf("err=%v matches ErrInterrupted; a failed save must not look like a clean interruption", err)
	}
}

// TestDriveEpochsRejectsNegative: a negative epoch count is an error
// returned before anything runs or is saved, not a makeslice panic.
func TestDriveEpochsRejectsNegative(t *testing.T) {
	tr, err := NewTrainer(TrainConfig{
		Trace: workload.SDSCSP2Like(2500, 6), Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 2, SeqLen: 64, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out, err := tr.DriveEpochs(context.Background(), -1, CheckpointConfig{Dir: dir, Every: 1}, tr.RunEpoch, nil)
	if err == nil || !contains(err.Error(), "-1") || out != nil {
		t.Fatalf("DriveEpochs(-1) = %v, %v; want no stats and an error naming the count", out, err)
	}
	if entries, err := ckpt.List(dir); err != nil || len(entries) != 0 {
		t.Fatalf("DriveEpochs(-1) left checkpoints %+v (err %v)", entries, err)
	}
}

// TestTrainCtxPeriodicSavesAndPrune: Every controls checkpoint cadence and
// Keep bounds the directory.
func TestTrainCtxPeriodicSavesAndPrune(t *testing.T) {
	trace := workload.SDSCSP2Like(2500, 8)
	tr, err := NewTrainer(TrainConfig{
		Trace: trace, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 3, SeqLen: 64, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := tr.TrainCtx(context.Background(), 3, CheckpointConfig{Dir: dir, Every: 1, Keep: 2}, nil); err != nil {
		t.Fatal(err)
	}
	entries, err := ckpt.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Seq != 2 || entries[1].Seq != 3 {
		t.Fatalf("retained checkpoints %+v, want epochs 2 and 3", entries)
	}
}

// TestCheckpointInspectorServes: a checkpoint is directly servable and
// agrees with the trainer's live model.
func TestCheckpointInspectorServes(t *testing.T) {
	trace := workload.SDSCSP2Like(2500, 2)
	tr, err := NewTrainer(TrainConfig{
		Trace: trace, Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 3, SeqLen: 64, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(1, nil); err != nil {
		t.Fatal(err)
	}
	c := tr.Checkpoint()
	payload, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrainerCheckpoint(TrainerCheckpointVersion, payload)
	if err != nil {
		t.Fatal(err)
	}
	live := saveModel(t, tr)
	var buf bytes.Buffer
	if err := back.Inspector(nil).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, buf.Bytes()) {
		t.Error("checkpoint-served inspector differs from the live model")
	}
	// Wrong schema version is refused.
	if _, err := DecodeTrainerCheckpoint(TrainerCheckpointVersion+1, payload); err == nil {
		t.Error("future schema version accepted")
	}
}
