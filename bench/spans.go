package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Parent is an index into the same tracer (-1 for a
// root); spans of one request, epoch or cycle share ID.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	ID      int    `json:"id"`
}

// tracer appends spans to a pre-sized slice. It is not safe for concurrent
// use: every goroutine that records gets its own and they are merged when
// the workload ends. A nil tracer records nothing, which is the untraced
// pass.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time, capacity int) *tracer {
	return &tracer{t0: t0, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, layer string, parent, id int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, ID: id,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndNS = time.Since(t.t0).Nanoseconds()
}

// dur is a span's duration in nanoseconds.
func (s span) dur() int64 { return s.EndNS - s.StartNS }

// selfTimes returns, per span, its duration minus the summed duration of its
// direct children. Children recorded from outside the program run one after
// another, so their durations add; a negative value means the children,
// timed in separate calls, cost more than the parent call that contains
// their work, and is reported as measured.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// durationsOf collects the durations (ns) of every span with the given name.
func durationsOf(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// merge appends other's spans, re-basing their parent indexes.
func (t *tracer) merge(other *tracer) {
	if t == nil || other == nil {
		return
	}
	base := len(t.spans)
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// writeFile dumps the spans as one JSON document.
func (t *tracer) writeFile(path, workload string) error {
	doc := struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
