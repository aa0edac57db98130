package serve

import (
	"bufio"
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
// sizes, with the audit sink on. A scratch released while its request still
// reads it, or handed to two requests, shows up as the race detector
// firing or as a record that mixes two requests: every verdict, audit line
// and explain record must carry the values of exactly one client.
func TestScratchPoolLifetime(t *testing.T) {
	const rounds = 40
	depths := []int{0, 1, 8, 32, 64, 128, 200, 256}
	ref := equivInspector(5, core.ManualFeatures)
	h := NewHandler(equivInspector(5, core.ManualFeatures))
	defer h.Close()
	var audit bytes.Buffer
	h.SetAuditSink(&audit)

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

	// owner maps a job.wait back to the client that sent it.
	owner := func(wait float64) *poolClient {
		if c := int(wait) - 1000; c >= 0 && c < len(clients) && float64(1000+c) == wait {
			return &clients[c]
		}
		return nil
	}
	lines := 0
	sc := bufio.NewScanner(&audit)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines++
		var rec struct {
			Request    InspectRequest `json:"request"`
			Features   []float64      `json:"features"`
			RejectProb float64        `json:"reject_prob"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("audit line %d: %v", lines, err)
		}
		cl := owner(rec.Request.Job.Wait)
		if cl == nil {
			t.Fatalf("audit line %d: job.wait %v belongs to no client", lines, rec.Request.Job.Wait)
		}
		var sent InspectRequest
		if err := json.Unmarshal(cl.body, &sent); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec.Request, sent) {
			t.Fatalf("audit line %d mixes requests:\naudited %+v\nsent    %+v", lines, rec.Request, sent)
		}
		if !reflect.DeepEqual(rec.Features, cl.features) || rec.RejectProb != cl.prob {
			t.Fatalf("audit line %d: features/prob of another request (depth %d)", lines, cl.depth)
		}
	}
	if want := rounds * len(clients); lines != want {
		t.Errorf("%d audit lines, want %d", lines, want)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/explain/last?n=512", nil))
	var last ExplainLastResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &last); err != nil {
		t.Fatal(err)
	}
	if len(last.Records) != rounds*len(clients) {
		t.Errorf("%d explain records, want %d", len(last.Records), rounds*len(clients))
	}
	for _, r := range last.Records {
		cl := owner(r.Wait)
		if cl == nil || r.QueueLen != cl.depth+1 || !reflect.DeepEqual(r.Features, cl.features) ||
			r.Probs[core.ActionReject] != cl.prob {
			t.Fatalf("explain record seq %d mixes requests: %+v", r.Seq, r)
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
