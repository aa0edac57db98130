package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/metrics"
	"schedinspector/internal/mutants"
	"schedinspector/internal/rl"
	"schedinspector/internal/sched"
	"schedinspector/internal/workload"
)

// trainedCheckpoint is a fixed seeded trainer's full state after one epoch.
// A non-nil hidden trains networks of that shape in place of the paper's,
// to keep fuzz seeds small.
func trainedCheckpoint(tb testing.TB, hidden []int) *TrainerCheckpoint {
	tb.Helper()
	tr, err := NewTrainer(TrainConfig{
		Trace: workload.SDSCSP2Like(2500, 2), Policy: sched.SJF(), Metric: metrics.BSLD,
		Batch: 3, SeqLen: 64, Seed: 17,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if hidden != nil {
		tr.insp = shapedInspector(rand.New(rand.NewSource(17)), tr.insp.Mode, tr.insp.Norm, hidden)
		tr.ppo = rl.NewPPO(tr.insp.Agent, tr.cfg.LR, false)
	}
	if _, err := tr.Train(1, nil); err != nil {
		tb.Fatal(err)
	}
	return tr.Checkpoint()
}

// TestCheckpointEncodeGolden pins the payload bytes of a trained
// checkpoint. The constant was generated at commit 71877ee, before core's
// private binWriter/binReader were replaced by ckpt.Writer/Reader: moving
// the codec must not move a byte (TrainerCheckpointVersion stays 1).
func TestCheckpointEncodeGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trained weights are amd64 bits; GOARCH=%s", runtime.GOARCH)
	}
	payload, err := trainedCheckpoint(t, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	const want = "c9a2454455f77625f5a9345db1b5832d90f337c3210471bcb975bf1c9b035e90"
	if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != want || len(payload) != 46752 {
		t.Errorf("payload of %d bytes has sha-256 %x, want 46752 bytes with %s", len(payload), sum, want)
	}
}

// shapedInspector is NewInspector with hidden layers of the given sizes.
// No config builds one, but a model file records its shape and loading
// accepts any.
func shapedInspector(rng *rand.Rand, mode FeatureMode, norm Normalizer, hidden []int) *Inspector {
	return &Inspector{Agent: rl.NewAgent(rng, mode.Dim(), hidden, 2), Mode: mode, Norm: norm}
}

// modelPayload is the model-file payload of a small untrained inspector.
func modelPayload(tb testing.TB, hidden []int) (*Inspector, []byte) {
	tb.Helper()
	in := shapedInspector(rand.New(rand.NewSource(3)), ManualFeatures, testNormalizer(metrics.BSLD), hidden)
	payload, err := in.payload()
	if err != nil {
		tb.Fatal(err)
	}
	return in, payload
}

// defectPayloads are the three model files that broke serving before the
// model format was the checkpoint's: one each of a short weight layer (a
// panic at the first decision), an unknown feature mode (a panic in the
// decoder, on inspectord's reload goroutine) and a NaN weight (every
// /v1/inspect answered 200 with an empty body).
func defectPayloads(tb testing.TB, hidden []int) map[string][]byte {
	tb.Helper()
	out := map[string][]byte{}
	for name, spoil := range map[string]func(*TrainerCheckpoint){
		"short layer":  func(c *TrainerCheckpoint) { c.Policy.W[1] = c.Policy.W[1][:3] },
		"unknown mode": func(c *TrainerCheckpoint) { c.Mode = 7 },
		"NaN weight":   func(c *TrainerCheckpoint) { c.Policy.W[2][5] = math.NaN() },
	} {
		_, model := modelPayload(tb, hidden)
		c, err := DecodeTrainerCheckpoint(TrainerCheckpointVersion, model)
		if err != nil {
			tb.Fatal(err)
		}
		spoil(c)
		if out[name], err = c.Encode(); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

func TestLoadServableRefusesDefects(t *testing.T) {
	for name, payload := range defectPayloads(t, Hidden()) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "model.ckpt")
			if err := ckpt.Write(path, TrainerCheckpointVersion, payload); err != nil {
				t.Fatal(err)
			}
			_, err := LoadServable(path, nil)
			var ce *ckpt.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("err=%v, want a *ckpt.CorruptError", err)
			}
		})
	}
}

// checkDecoded is the contract of DecodeTrainerCheckpoint on any payload:
// a *ckpt.CorruptError, or a checkpoint whose inspector answers a decision
// with finite probabilities. A panic fails the caller.
func checkDecoded(t *testing.T, payload []byte) *TrainerCheckpoint {
	t.Helper()
	c, err := DecodeTrainerCheckpoint(TrainerCheckpointVersion, payload)
	if err != nil {
		var ce *ckpt.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("untyped error %v", err)
		}
		return nil
	}
	_, _, _, probs := c.Inspector(rand.New(rand.NewSource(1))).ExplainScratch(sampleState())
	for _, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("accepted model answers probabilities %v", probs)
		}
	}
	return c
}

// TestDecodeTrainerCheckpointMutants sweeps every prefix and every
// single-bit flip of a saved model's payload through the decoder.
func TestDecodeTrainerCheckpointMutants(t *testing.T) {
	_, payload := modelPayload(t, []int{4, 3})
	accepted := 0
	mutants.Each(payload, func(m []byte) {
		if checkDecoded(t, m) != nil {
			accepted++
		}
	})
	if accepted == 0 {
		t.Error("no mutant decoded: the whole payload should")
	}
}

// FuzzDecodeTrainerCheckpoint drives the payload decoder directly (no CRC
// in front of it): it never panics, and an accepted payload re-encodes to
// the same bytes and serves a decision with finite probabilities.
func FuzzDecodeTrainerCheckpoint(f *testing.F) {
	// Small networks keep the seeds short enough to mutate and minimize.
	_, model := modelPayload(f, []int{4, 3})
	full, err := trainedCheckpoint(f, []int{4, 3}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(model)
	f.Add(full)
	for _, p := range defectPayloads(f, []int{4, 3}) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		c := checkDecoded(t, payload)
		if c == nil {
			return
		}
		again, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("re-encoding differs (%d vs %d bytes)", len(again), len(payload))
		}
	})
}
