package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/core"
	"schedinspector/internal/metrics"
	"schedinspector/internal/obs"
	"schedinspector/internal/workload"
)

// reloadPair builds two distinguishable inspectors over the same feature
// contract: different hidden sizes mean different parameter counts and a
// different rejection probability for the same request.
func reloadPair(t *testing.T) (*core.Inspector, *core.Inspector) {
	t.Helper()
	tr := workload.SDSCSP2Like(500, 3)
	norm := core.NormalizerForTrace(tr, metrics.BSLD)
	a := core.NewInspector(rand.New(rand.NewSource(1)), core.ManualFeatures, norm, nil)
	b := core.NewInspector(rand.New(rand.NewSource(2)), core.ManualFeatures, norm, []int{8, 8})
	return a, b
}

func postReload(t *testing.T, h http.Handler) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admin/reload", nil))
	return rec
}

func metricsPage(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

func TestReloadSwapsModel(t *testing.T) {
	a, b := reloadPair(t)
	h := NewHandler(a)
	h.SetReloader(func() (*core.Inspector, error) { return b, nil })

	rec := postReload(t, h)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", rec.Code, rec.Body)
	}
	var resp ReloadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 2 {
		t.Errorf("generation %d after first reload, want 2", resp.Generation)
	}
	if want := b.Agent.Policy.NumParams(); resp.Params != want {
		t.Errorf("params %d, want %d", resp.Params, want)
	}

	// /v1/info now describes the new model.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
	var info InfoResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if want := b.Agent.Policy.NumParams(); info.Params != want {
		t.Errorf("info params %d after swap, want %d", info.Params, want)
	}

	page := metricsPage(t, h)
	for _, want := range []string{
		"schedinspector_model_reloads_total 1",
		"schedinspector_model_load_failures_total 0",
		"schedinspector_model_generation 2",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// TestReloadFailureKeepsModel: a failed reload — the loader's own error, or
// one of the model files that once broke serving (a short weight layer
// panicked at the first decision, an unknown feature mode panicked in the
// decoder, a NaN weight made every verdict an empty 200) — answers 500
// naming the cause, leaves the generation alone, and the old model serves.
func TestReloadFailureKeepsModel(t *testing.T) {
	a, _ := reloadPair(t)
	spoiled := func(spoil func(*core.TrainerCheckpoint)) func() (*core.Inspector, error) {
		path := filepath.Join(t.TempDir(), "model.ckpt")
		if err := a.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		c, err := core.LoadTrainerCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		spoil(c)
		payload, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := ckpt.Write(path, core.TrainerCheckpointVersion, payload); err != nil {
			t.Fatal(err)
		}
		return func() (*core.Inspector, error) { return core.LoadServable(path, nil) }
	}
	for _, tc := range []struct {
		name, cause string
		load        func() (*core.Inspector, error)
	}{
		{"loader error", "disk on fire", func() (*core.Inspector, error) { return nil, errors.New("disk on fire") }},
		{"short layer", "wrong parameter count", spoiled(func(c *core.TrainerCheckpoint) { c.Policy.W[1] = c.Policy.W[1][:3] })},
		{"unknown mode", "unknown feature mode", spoiled(func(c *core.TrainerCheckpoint) { c.Mode = 7 })},
		{"NaN weight", "non-finite", spoiled(func(c *core.TrainerCheckpoint) { c.Policy.W[2][5] = math.NaN() })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHandler(a)
			h.SetReloader(tc.load)
			rec := postReload(t, h)
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("failed reload status %d, want 500", rec.Code)
			}
			if !strings.Contains(rec.Body.String(), tc.cause) {
				t.Errorf("error body %q does not name the cause %q", rec.Body, tc.cause)
			}
			if rec = postInspect(t, h, validRequest()); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "reject_prob") {
				t.Fatalf("inspect after failed reload: status %d, body %q", rec.Code, rec.Body)
			}
			page := metricsPage(t, h)
			for _, want := range []string{
				"schedinspector_model_reloads_total 0",
				"schedinspector_model_load_failures_total 1",
				"schedinspector_model_generation 1",
			} {
				if !strings.Contains(page, want) {
					t.Errorf("metrics page missing %q", want)
				}
			}
		})
	}
}

func TestReloadNotConfigured(t *testing.T) {
	a, _ := reloadPair(t)
	h := NewHandler(a)
	if rec := postReload(t, h); rec.Code != http.StatusNotImplemented {
		t.Fatalf("unconfigured reload status %d, want 501", rec.Code)
	}
}

func TestReloadRequiresPost(t *testing.T) {
	a, b := reloadPair(t)
	h := NewHandler(a)
	h.SetReloader(func() (*core.Inspector, error) { return b, nil })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/admin/reload", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload status %d, want 405", rec.Code)
	}
}

// TestSwapUnderLoad hammers /v1/inspect from many goroutines while the
// model is swapped back and forth. Every response must succeed and report
// a rejection probability belonging to exactly one of the two models —
// a torn swap would surface as a third value or a non-200 (and as a data
// race under -race, which the Makefile race target runs for this package).
func TestSwapUnderLoad(t *testing.T) {
	a, b := reloadPair(t)
	h := NewHandler(a)
	req := validRequest()

	// Establish each model's deterministic probability for the request.
	probOf := func(insp *core.Inspector) float64 {
		t.Helper()
		h.Swap(insp)
		rec := postInspect(t, h, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("probe status %d: %s", rec.Code, rec.Body)
		}
		var resp InspectResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.RejectProb
	}
	probA, probB := probOf(a), probOf(b)
	if probA == probB {
		t.Fatalf("test models indistinguishable: both answer %v", probA)
	}

	const (
		clients   = 8
		perClient = 50
	)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rec := postInspect(t, h, req)
				if rec.Code != http.StatusOK {
					errc <- errors.New(rec.Body.String())
					return
				}
				var resp InspectResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errc <- err
					return
				}
				if resp.RejectProb != probA && resp.RejectProb != probB {
					errc <- errors.New("response from neither model")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			h.Swap(b)
		} else {
			h.Swap(a)
		}
		if i%20 == 0 {
			// 1 boot + 2 probes + i+1 swaps: a returned Swap is a visible one.
			if v := metricValue(t, metricsPage(t, h), "schedinspector_model_generation", ""); v != float64(i+4) {
				t.Errorf("model_generation %v after %d swaps, want %d", v, i+3, i+4)
			}
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("client: %v", err)
	}

	page := metricsPage(t, h)
	if !strings.Contains(page, "schedinspector_model_reloads_total 202") {
		t.Errorf("expected 202 recorded swaps (2 probes + 200 loop); metrics page:\n%s",
			pageLine(page, "schedinspector_model_reloads_total"))
	}
}

// TestReloadFromDiskUnderLoad mirrors cmd/inspectord's wiring exactly: one
// process-lifetime sampling rng shared between the serving path (which
// draws from it under the model lock) and the reload closure (which loads
// the model file off the lock, by design, so serving never stalls on I/O).
// That sharing is only sound because loading never draws from the rng —
// core.LoadServable installs the stored networks via rl.AgentFromNets
// instead of initializing throwaway ones — and this test pins it: it runs
// real disk loads concurrently with live /v1/inspect sampling, so any
// draw on the load path is a data race under -race (which the Makefile
// race target runs for this package).
func TestReloadFromDiskUnderLoad(t *testing.T) {
	a, _ := reloadPair(t)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	boot, err := core.LoadServable(path, rng)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(boot)
	h.SetReloader(func() (*core.Inspector, error) { return core.LoadServable(path, rng) })

	body, err := json.Marshal(validRequest())
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if rec := postInspect(t, h, string(body)); rec.Code != http.StatusOK {
					t.Errorf("inspect status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	for i := 0; i < 25; i++ {
		if _, err := h.Reload(); err != nil {
			t.Errorf("reload %d: %v", i, err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestReloadReportsOwnGeneration races reloads against a Swap loop that does
// not take reloadMu (the online loop's promotions). Every installed model
// carries a rejection cap of its own, so every generation writes one header
// to the ring's sink stream and the k-th header names who installed
// generation k: each reload must report exactly the position of its own
// header. Reading the generation gauge after the swap returned, as Reload
// once did, reports a later Swap's generation.
func TestReloadReportsOwnGeneration(t *testing.T) {
	base := equivInspector(1, core.ManualFeatures)
	withCap := func(maxRej int) *core.Inspector {
		norm := base.Norm
		norm.MaxRejections = maxRej
		return base.WithNormalizer(norm)
	}
	h := NewHandler(withCap(1))
	defer h.Close()
	var sink bytes.Buffer
	h.ring.SetSink(&sink)

	const reloads, swappers, reloadCap, swapCap = 500, 4, 1000, 1 << 20
	next := 0 // reloads run one at a time, under reloadMu
	h.SetReloader(func() (*core.Inspector, error) { next++; return withCap(reloadCap + next - 1), nil })
	var swaps atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < swappers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Swap(withCap(swapCap + int(swaps.Add(1))))
				}
			}
		}()
	}
	reported := make([]int, reloads) // reload i -> the generation it reported
	for i := range reported {
		resp, err := h.Reload()
		if err != nil {
			t.Fatal(err)
		}
		reported[i] = resp.Generation
	}
	close(stop)
	wg.Wait()
	if err := h.ring.Flush(); err != nil {
		t.Fatal(err)
	}

	gen, confirmed := 0, 0
	walkFTrace(t, sink.Bytes(), func(kind byte, body []byte) {
		if kind != obs.FTraceKindHeader {
			return
		}
		hdr, err := obs.DecodeFTraceHeader(body)
		if err != nil {
			t.Fatal(err)
		}
		gen++
		if i := hdr.MaxRejections - reloadCap; i >= 0 && i < reloads {
			if reported[i] != gen {
				t.Errorf("reload %d installed generation %d and reported %d", i, gen, reported[i])
			}
			confirmed++
		}
	})
	if want := 1 + reloads + int(swaps.Load()); gen != want || confirmed != reloads {
		t.Errorf("%d headers (%d from reloads), want %d (%d)", gen, confirmed, want, reloads)
	}
	if v := metricValue(t, metricsPage(t, h), "schedinspector_model_generation", ""); v != float64(gen) {
		t.Errorf("model_generation %v, want %d", v, gen)
	}
}

// pageLine extracts the metric line for a name, for focused failure output.
func pageLine(page, name string) string {
	for _, l := range strings.Split(page, "\n") {
		if strings.HasPrefix(l, name) {
			return l
		}
	}
	return "(missing)"
}
