package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// traceDigest is the sha-256 of every job field of tr in job order, each
// as eight big-endian bytes: floats by their IEEE bits, ints as uint64.
func traceDigest(tr *Trace) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(tr.MaxProcs))
	for _, j := range tr.Jobs {
		put(uint64(j.ID))
		put(math.Float64bits(j.Submit))
		put(math.Float64bits(j.Run))
		put(math.Float64bits(j.Est))
		put(uint64(j.Procs))
		put(uint64(j.User))
		put(uint64(j.Group))
		put(uint64(j.Queue))
		put(uint64(j.Partition))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPaperTraceDigests pins every bit of the four paper traces and of
// tracegen -custom's default trace at 2000 jobs, seed 42. A change to a
// generator's constants, its draw order or its arithmetic moves a digest;
// a refactor of how the generators are configured must not.
func TestPaperTraceDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("generated traces are amd64 bits; GOARCH=%s", runtime.GOARCH)
	}
	want := map[string]string{
		"SDSC-SP2": "f67947d02af870c573f8d573532b9c3b370aa8cb84726d880f022cb42c9a6d1a",
		"CTC-SP2":  "2b0dcbed73e25ec716afccb77b0990f5b32eac33e736db85faca4c6def4d940c",
		"HPC2N":    "35447586b0c22ade7e78cab33dcf7b8c75ff3ab448f645794fa60b0998d306bd",
		"Lublin":   "1b6d230afd7e876955f30d0d206bb707a22bbf2809502e3d652729646826a3fb",
		"custom":   "05eb999b3edc2c3847d6e9ad1ff8aeef494ff2fc8ab395e414ff97a9e20da8f5",
	}
	for _, name := range PaperTraces() {
		tr, err := ByName(name, 2000, 42)
		if err != nil {
			t.Fatal(err)
		}
		if got := traceDigest(tr); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
	// cmd/tracegen's -custom flag defaults.
	custom := Generate(SynthConfig{
		Name: "custom", MaxProcs: 256, Jobs: 2000, Seed: 42,
		Interval: 600, MeanEst: 7200, Procs: 16, Burst: 0.45, Diurnal: 0.7,
	})
	if got := traceDigest(custom); got != want["custom"] {
		t.Errorf("custom: digest %s, want %s", got, want["custom"])
	}
}
