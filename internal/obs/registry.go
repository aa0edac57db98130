package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// A Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4). Registration is expected at setup
// time and panics on misuse (invalid names, type conflicts, duplicate
// name+labels); observation methods on the returned metrics are lock-free
// and safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	fams     map[string]*family
	pageSize atomic.Int64 // bytes of the last exposition: the next one's buffer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	series  []series
	byLabel map[string]int // rendered label string -> series index
}

// series is one labeled member of a family.
type series struct {
	labels string // pre-rendered {k="v"} suffix, "" if unlabeled
	metric renderer
}

// renderer appends the exposition lines of one series to b.
type renderer interface {
	appendTo(b []byte, name, labels string) []byte
}

// register adds (or fetches the family of) a metric and panics on misuse.
func (r *Registry) register(name, help, typ string, labels Labels, m renderer) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabel: make(map[string]int)}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	if _, dup := f.byLabel[ls]; dup {
		panic(fmt.Sprintf("obs: duplicate registration of %s%s", name, ls))
	}
	f.byLabel[ls] = len(f.series)
	f.series = append(f.series, series{labels: ls, metric: m})
}

// Counter registers a monotonically increasing counter. By convention the
// name should end in _total.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", labels, c)
	return c
}

// Gauge registers a gauge: a value that can go up and down.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", labels, g)
	return g
}

// GaugeFunc registers a gauge whose value fn computes at scrape time — the
// right shape for values derived from other metrics (a ratio of two
// counters, a live queue depth), where per-event read-modify-write updates
// interleave under concurrency and publish torn values. fn must be safe for
// concurrent use and is called once per exposition.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if fn == nil {
		panic(fmt.Sprintf("obs: nil GaugeFunc for metric %q", name))
	}
	r.register(name, help, "gauge", labels, gaugeFunc(fn))
}

// gaugeFunc renders a computed gauge sample.
type gaugeFunc func() float64

func (g gaugeFunc) appendTo(b []byte, name, labels string) []byte {
	return appendSample(b, name, "", labels, g())
}

// appendSample appends one "name+suffix labels value" line.
func appendSample(b []byte, name, suffix, labels string, v float64) []byte {
	b = append(append(append(b, name...), suffix...), labels...)
	return append(appendValue(append(b, ' '), v), '\n')
}

// AppendPromFamily appends a family's "# HELP" and "# TYPE" lines, each
// omitted when empty.
func AppendPromFamily(b []byte, name, help, typ string) []byte {
	if help != "" {
		b = append(append(append(append(b, "# HELP "...), name...), ' '), escapeHelp(help)...)
		b = append(b, '\n')
	}
	if typ != "" {
		b = append(append(append(append(b, "# TYPE "...), name...), ' '), typ...)
		b = append(b, '\n')
	}
	return b
}

// appendHistogram appends one histogram series: a _bucket line per bucket,
// its bound spliced into the labels as a last le label, then _sum, then
// _count, which is the last bucket's cumulative count. bucket(i) returns
// the i-th bound and cumulative count; the last bound is +Inf.
func appendHistogram(b []byte, name, labels string, buckets int, bucket func(i int) (le float64, cum uint64), sum float64) []byte {
	prefix := "{"
	if labels != "" {
		prefix = labels[:len(labels)-1] + ","
	}
	var cum uint64
	for i := 0; i < buckets; i++ {
		var le float64
		le, cum = bucket(i)
		b = append(append(append(b, name...), "_bucket"...), prefix...)
		b = appendValue(append(b, `le="`...), le)
		b = append(strconv.AppendUint(append(b, `"} `...), cum, 10), '\n')
	}
	b = appendSample(b, name, "_sum", labels, sum)
	b = append(append(append(append(b, name...), "_count"...), labels...), ' ')
	return append(strconv.AppendUint(b, cum, 10), '\n')
}

// AppendPromSample appends one sample line as WriteProm renders it, for a
// caller holding labels as a map (the exposition parser's round-trip
// oracle, fleet.Scrape.WriteTo). It panics on an
// invalid label name.
func AppendPromSample(b []byte, name string, labels Labels, v float64) []byte {
	return appendSample(b, name, "", renderLabels(labels), v)
}

// AppendPromHistogram is appendHistogram for a caller holding labels as a
// map. It panics on an invalid label name.
func AppendPromHistogram(b []byte, name string, labels Labels, buckets int, bucket func(i int) (le float64, cum uint64), sum float64) []byte {
	return appendHistogram(b, name, renderLabels(labels), buckets, bucket, sum)
}

// Histogram registers a histogram with the given upper bucket bounds (the
// +Inf bucket is implicit; bounds must be strictly increasing). A nil
// buckets slice uses DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = DefBuckets()
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	h := &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)),
	}
	r.register(name, help, "histogram", labels, h)
	return h
}

// WriteProm renders every registered family, sorted by name (series in
// registration order), in the Prometheus text exposition format.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	// Copy each family's series slice header under the lock: register
	// appends to it, and a scrape may run while series are still being added.
	fams := make([]family, len(names))
	for i, n := range names {
		fams[i] = *r.fams[n]
	}
	r.mu.Unlock()

	var b []byte
	if n := r.pageSize.Load(); n > 0 {
		b = make([]byte, 0, n+n/8)
	}
	for i := range fams {
		f := &fams[i]
		b = AppendPromFamily(b, f.name, f.help, f.typ)
		for _, s := range f.series {
			b = s.metric.appendTo(b, f.name, s.labels)
		}
	}
	r.pageSize.Store(int64(len(b)))
	_, err := w.Write(b)
	return err
}

// Handler returns an http.Handler serving the exposition — mount it at
// /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteProm(w)
	})
}

// atomicFloat is a float64 updated with CAS on its bit pattern — the
// standard lock-free float accumulator.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) load() float64   { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing value. The zero value is ready to
// use but is normally obtained from Registry.Counter.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds v, which must not be negative.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decrease")
	}
	c.v.add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

func (c *Counter) appendTo(b []byte, name, labels string) []byte {
	return appendSample(b, name, "", labels, c.Value())
}

// Gauge is a value that can move in both directions.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

func (g *Gauge) appendTo(b []byte, name, labels string) []byte {
	return appendSample(b, name, "", labels, g.Value())
}

// Histogram counts observations into cumulative buckets and tracks their
// sum. Buckets are fixed at registration; Observe is lock-free.
type Histogram struct {
	upper  []float64       // strictly increasing upper bounds, +Inf implicit
	counts []atomic.Uint64 // per-bucket (non-cumulative) counts
	inf    atomic.Uint64   // observations above the last bound
	sum    atomicFloat
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.upper)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.upper[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.upper) {
		h.counts[lo].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

func (h *Histogram) appendTo(b []byte, name, labels string) []byte {
	var cum uint64
	return appendHistogram(b, name, labels, len(h.upper)+1, func(i int) (float64, uint64) {
		if i == len(h.upper) {
			cum += h.inf.Load()
			return math.Inf(1), cum
		}
		cum += h.counts[i].Load()
		return h.upper[i], cum
	}, h.Sum())
}

// DefBuckets returns the conventional latency buckets (seconds), matching
// the Prometheus client default.
func DefBuckets() []float64 {
	return []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// LinearBuckets returns n bounds starting at start, spaced by width.
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// ExponentialBuckets returns n bounds starting at start, each factor times
// the previous. start and factor must make the sequence increasing.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}
