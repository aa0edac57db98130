package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"schedinspector/internal/serve"
	"schedinspector/internal/workload"
)

// opKind is one kind of request the serve workloads send.
type opKind int

const (
	opInspect opKind = iota
	opSimulate
	opExplainLast
	opMetrics
	opSnapshot
	opReload
	numOps
)

var opNames = [numOps]string{"inspect", "simulate", "explain_last", "metrics_scrape", "trace_snapshot", "reload"}

// opMix holds cumulative thresholds over [0, 1): kind k is chosen when the
// draw is below mix[k] and not below mix[k-1].
type opMix [numOps]float64

var (
	// shallowMix is one cluster's scheduler asking for verdicts and nothing
	// else.
	shallowMix = opMix{1, 1, 1, 1, 1, 1}
	// mixedMix is 94 % inspect, 2 % simulate, 2 % explain/last, 1 % scrape,
	// 0.5 % trace snapshot, 0.5 % reload.
	mixedMix = opMix{0.94, 0.96, 0.98, 0.99, 0.995, 1}
)

// pick maps one uniform draw to an op kind by a cumulative-threshold switch.
func (m opMix) pick(u float64) opKind {
	for k := opInspect; k < numOps-1; k++ {
		if u < m[k] {
			return k
		}
	}
	return numOps - 1
}

// request is one pre-serialised HTTP/1.1 request. body aliases the JSON
// payload inside wire (empty for GETs).
type request struct {
	wire []byte
	body []byte
}

func newRequest(method, path string, body []byte) request {
	head := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if method == "POST" {
		head += fmt.Sprintf("Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	head += "\r\n"
	wire := append([]byte(head), body...)
	return request{wire: wire, body: wire[len(head):]}
}

// maxWaitSeconds bounds the generated waiting times. With the shallow
// corpus's mean queue length of 5 it makes the arrival gap the online loop
// reconstructs (mean wait over mean queue length) about 1000 s, the mean
// interval of the SDSC-SP2-like trace the jobs are drawn from.
const maxWaitSeconds = 10000

// genInspectCorpus builds n /v1/inspect requests whose queue depth is
// uniform in [minDepth, maxDepth]. Estimates and processor counts are drawn
// from the trace, so the features the model sees are in its training
// distribution. Equal seeds give byte-identical corpora.
func genInspectCorpus(tr *workload.Trace, seed int64, n, minDepth, maxDepth int) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, n)
	for i := range reqs {
		var r serve.InspectRequest
		j := tr.Jobs[rng.Intn(len(tr.Jobs))]
		r.Job.Wait = float64(rng.Intn(maxWaitSeconds))
		r.Job.Est = j.Est
		r.Job.Procs = j.Procs
		r.TotalProcs = tr.MaxProcs
		r.FreeProcs = rng.Intn(tr.MaxProcs + 1)
		depth := minDepth + rng.Intn(maxDepth-minDepth+1)
		r.Queue = make([]serve.QueueItem, depth)
		for k := range r.Queue {
			q := tr.Jobs[rng.Intn(len(tr.Jobs))]
			r.Queue[k] = serve.QueueItem{Wait: float64(rng.Intn(maxWaitSeconds)), Est: q.Est, Procs: q.Procs}
		}
		body, err := json.Marshal(&r)
		if err != nil {
			panic(err) // a struct of numbers and bools always encodes
		}
		reqs[i] = newRequest("POST", "/v1/inspect", body)
	}
	return reqs
}

// genSimulateCorpus builds n /v1/simulate requests, each a window of jobs
// consecutive trace jobs under SJF with the stochastic inspector.
func genSimulateCorpus(tr *workload.Trace, seed int64, n, jobs int) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, n)
	for i := range reqs {
		win := tr.Window(rng.Intn(tr.Len()-jobs+1), jobs)
		r := serve.SimulateRequest{Policy: "SJF", MaxProcs: tr.MaxProcs, Inspector: "stochastic", Seed: rng.Int63()}
		r.Jobs = make([]serve.SimJob, len(win))
		for k, j := range win {
			r.Jobs[k] = serve.SimJob{Submit: j.Submit, Run: j.Run, Est: j.Est, Procs: j.Procs}
		}
		body, err := json.Marshal(&r)
		if err != nil {
			panic(err)
		}
		reqs[i] = newRequest("POST", "/v1/simulate", body)
	}
	return reqs
}

// corpus is everything one serve workload sends.
type corpus struct {
	mix     opMix
	inspect []request
	others  [numOps][]request // indexed by kind; inspect's slot is unused
}

func (c *corpus) add(kind opKind, reqs ...request) { c.others[kind] = append(c.others[kind], reqs...) }

// genCorpora builds the shallow (depth 0-8) and mixed (depth 64-256 plus the
// read, simulate and reload ops) corpora from one seed.
func genCorpora(tr *workload.Trace, seed int64, sz sizes) (shallow, mixed *corpus) {
	shallow = &corpus{mix: shallowMix, inspect: genInspectCorpus(tr, seed, sz.shallowReqs, 0, 8)}
	mixed = &corpus{mix: mixedMix, inspect: genInspectCorpus(tr, seed+1, sz.mixedReqs, 64, 256)}
	mixed.add(opSimulate, genSimulateCorpus(tr, seed+2, sz.simulateReqs, sz.simulateJobs)...)
	mixed.add(opExplainLast, newRequest("GET", "/v1/explain/last", nil))
	mixed.add(opMetrics, newRequest("GET", "/metrics", nil))
	mixed.add(opSnapshot, newRequest("GET", "/v1/trace/snapshot?format=jsonl", nil),
		newRequest("GET", "/v1/trace/snapshot?format=ftrace", nil))
	mixed.add(opReload, newRequest("POST", "/v1/admin/reload", nil))
	return shallow, mixed
}
