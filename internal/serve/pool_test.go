package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"schedinspector/internal/core"
)

// poolClient is one client of the pool-lifetime test: a request no other
// client sends (its job.wait names it, and every queue item carries it) and
// what the model must say about that request.
type poolClient struct {
	body     []byte
	depth    int
	features []float64
	prob     float64
}

// TestScratchPoolLifetime drives the pooled request scratch from eight
// clients at once, queue depths 0 to 256 so buffers change hands across
// sizes. A scratch released while its request still reads it, or handed to
// two requests, shows up as the race detector firing or as a record that
// mixes two requests: every verdict and flight record must carry the values
// of exactly one client.
func TestScratchPoolLifetime(t *testing.T) {
	const rounds = 40
	depths := []int{0, 1, 8, 32, 64, 128, 200, 256}
	ref := equivInspector(5, core.ManualFeatures)
	h := NewHandler(equivInspector(5, core.ManualFeatures))
	defer h.Close()

	clients := make([]poolClient, len(depths))
	for c, depth := range depths {
		var req InspectRequest
		req.Job.Wait, req.Job.Est, req.Job.Procs = float64(1000+c), 3600, 16
		req.Rejections, req.FreeProcs, req.TotalProcs = c%3, 8*c, 128
		req.Queue = []QueueItem{} // a nil queue marshals as null, which is encoding/json's to decode
		for k := 0; k < depth; k++ {
			req.Queue = append(req.Queue, QueueItem{Wait: float64(1000 + c), Est: float64(100*c + k + 1), Procs: c + 1})
		}
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		_, feat, _, probs := ref.Explain(waveState(&req), false)
		clients[c] = poolClient{body: body, depth: depth, features: feat, prob: probs[core.ActionReject]}
	}

	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(cl *poolClient) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/inspect", bytes.NewReader(cl.body)))
				var resp InspectResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
					t.Errorf("status %d, body %q: %v", rec.Code, rec.Body, err)
					return
				}
				if resp.RejectProb != cl.prob {
					t.Errorf("depth %d: reject_prob %v, in-process model says %v", cl.depth, resp.RejectProb, cl.prob)
					return
				}
			}
		}(&clients[c])
	}
	wg.Wait()
	if v := h.fallbacks.Value(); v != 0 {
		t.Errorf("%v canonical requests fell back to encoding/json", v)
	}

	_, recs := h.ring.LastDecisions(rounds * len(clients))
	if len(recs) != rounds*len(clients) {
		t.Errorf("%d flight records, want %d", len(recs), rounds*len(clients))
	}
	for _, r := range recs {
		// job.wait names the client; every other field must be that client's.
		c := int(r.Wait) - 1000
		if c < 0 || c >= len(clients) || float64(1000+c) != r.Wait {
			t.Fatalf("flight record seq %d: wait %v belongs to no client", r.Seq, r.Wait)
		}
		cl := &clients[c]
		if r.Est != 3600 || r.Procs != 16 || r.Rejections != c%3 || r.FreeProcs != 8*c ||
			r.QueueLen != cl.depth+1 || !reflect.DeepEqual(r.Features, cl.features) ||
			r.Probs[core.ActionReject] != cl.prob {
			t.Fatalf("flight record seq %d mixes requests (client depth %d): %+v", r.Seq, cl.depth, r)
		}
	}
}

// TestOversizedScratchIsNotPooled: a scratch grown past the pool bounds is
// left to the garbage collector, so one outsized request does not set the
// daemon's resident size.
func TestOversizedScratchIsNotPooled(t *testing.T) {
	var small, big, deep requestScratch
	small.body.Grow(maxPooledBody / 2)
	small.queue = make([]QueueItem, 0, 256)
	big.body.Grow(maxPooledBody + 1)
	deep.queue = make([]QueueItem, 0, maxPooledQueue+1)
	if !small.poolable() {
		t.Error("a scratch within the bounds is not pooled")
	}
	if big.poolable() || deep.poolable() {
		t.Error("a scratch past the bounds goes back to the pool")
	}
}
