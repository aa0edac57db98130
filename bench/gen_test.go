package main

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"schedinspector/internal/workload"
)

func wires(reqs []request) []byte {
	var all []byte
	for _, r := range reqs {
		all = append(all, r.wire...)
	}
	return all
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	tr := workload.SDSCSP2Like(2000, traceSeed)
	a1, m1 := genCorpora(tr, 7, quickSizes)
	a2, m2 := genCorpora(tr, 7, quickSizes)
	b1, n1 := genCorpora(tr, 8, quickSizes)
	for _, c := range []struct {
		name       string
		x, same, d *corpus
	}{{"shallow", a1, a2, b1}, {"mixed", m1, m2, n1}} {
		if !bytes.Equal(wires(c.x.inspect), wires(c.same.inspect)) {
			t.Errorf("%s: equal seeds gave different inspect corpora", c.name)
		}
		if bytes.Equal(wires(c.x.inspect), wires(c.d.inspect)) {
			t.Errorf("%s: different seeds gave the same inspect corpus", c.name)
		}
	}
	if !bytes.Equal(wires(m1.others[opSimulate]), wires(m2.others[opSimulate])) ||
		bytes.Equal(wires(m1.others[opSimulate]), wires(n1.others[opSimulate])) {
		t.Error("simulate corpus does not follow the seed")
	}
	for i, r := range a1.inspect {
		if !bytes.HasSuffix(r.wire, r.body) || len(r.body) == 0 {
			t.Fatalf("request %d: body does not alias the end of wire", i)
		}
	}
}

func TestOpMixHitsItsWeights(t *testing.T) {
	const draws = 100000
	want := [numOps]float64{0.94, 0.02, 0.02, 0.01, 0.005, 0.005}
	var got [numOps]int
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < draws; i++ {
		got[mixedMix.pick(rng.Float64())]++
	}
	for k, w := range want {
		if share := float64(got[k]) / draws; math.Abs(share-w) > 0.01*math.Max(w, 0.1) {
			t.Errorf("%s: share %.4f, want %.4f within 1%%", opNames[k], share, w)
		}
	}
	for i := 0; i < 1000; i++ {
		if k := shallowMix.pick(rng.Float64()); k != opInspect {
			t.Fatalf("shallow mix drew %s", opNames[k])
		}
	}
	if k := mixedMix.pick(0.999999); k != opReload {
		t.Errorf("top of the range drew %s, want reload", opNames[k])
	}
}
