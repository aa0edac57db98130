package obs

import (
	"runtime"
	"sync"
	"time"
)

// Runtime self-profiling: a lightweight sampler that periodically snapshots
// the Go runtime (goroutine count, heap, GC activity) into the trace ring
// and mirrors the latest sample into registry gauges. It answers "was the
// daemon leaking goroutines / growing its heap before the incident" from
// /metrics alone, without attaching pprof — pprof stays available for deep
// dives, this is the always-on flight-recorder view.

// ProcStats is one runtime snapshot.
type ProcStats struct {
	Wall       int64  `json:"wall"` // Unix nanoseconds
	Goroutines int    `json:"goroutines"`
	HeapAlloc  uint64 `json:"heap_alloc"` // bytes of live heap objects
	HeapSys    uint64 `json:"heap_sys"`   // bytes obtained from the OS for the heap
	NumGC      uint32 `json:"num_gc"`
	PauseTotal uint64 `json:"gc_pause_total_ns"`
}

// ProcSampler snapshots runtime stats on demand or on a timer. The zero
// value is not usable; construct with NewProcSampler.
type ProcSampler struct {
	goroutines *Gauge
	heapAlloc  *Gauge
	heapSys    *Gauge
	numGC      *Gauge

	trace *TraceRing

	mu   sync.Mutex // guards stop, done
	stop chan struct{}
	done chan struct{}
}

// NewProcSampler returns a sampler. If reg is non-nil the latest sample is
// mirrored into gauges (schedinspector_goroutines, schedinspector_heap_*); if
// trace is non-nil every sample is emitted into it as a proc record, so
// explain windows can correlate decisions with GC and heap pressure from the
// same .ftrace stream.
func NewProcSampler(reg *Registry, trace *TraceRing) *ProcSampler {
	p := &ProcSampler{trace: trace}
	if reg != nil {
		p.goroutines = reg.Gauge("schedinspector_goroutines", "Current goroutine count.", nil)
		p.heapAlloc = reg.Gauge("schedinspector_heap_alloc_bytes", "Bytes of live heap objects.", nil)
		p.heapSys = reg.Gauge("schedinspector_heap_sys_bytes", "Heap bytes obtained from the OS.", nil)
		p.numGC = reg.Gauge("schedinspector_gc_cycles_total", "Completed GC cycles (gauge mirror of runtime.NumGC).", nil)
	}
	return p
}

// Sample takes one snapshot now, emits it to the trace ring, updates the
// gauges, and returns it.
func (p *ProcSampler) Sample() ProcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := ProcStats{
		Wall:       wallNow(),
		Goroutines: runtime.NumGoroutine(),
		HeapAlloc:  ms.HeapAlloc,
		HeapSys:    ms.HeapSys,
		NumGC:      ms.NumGC,
		PauseTotal: ms.PauseTotalNs,
	}
	p.trace.EmitProc(s)
	if p.goroutines != nil {
		p.goroutines.Set(float64(s.Goroutines))
		p.heapAlloc.Set(float64(s.HeapAlloc))
		p.heapSys.Set(float64(s.HeapSys))
		p.numGC.Set(float64(s.NumGC))
	}
	return s
}

// Start samples immediately and then every interval until the returned stop
// function is called (idempotent). Starting an already-started sampler
// panics.
func (p *ProcSampler) Start(interval time.Duration) (stop func()) {
	p.mu.Lock()
	if p.stop != nil {
		p.mu.Unlock()
		panic("obs: ProcSampler already started")
	}
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	stopc, donec := p.stop, p.done
	p.mu.Unlock()

	p.Sample()
	go func() {
		defer close(donec)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.Sample()
			case <-stopc:
				return
			}
		}
	}()

	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopc)
			<-donec
			p.mu.Lock()
			p.stop, p.done = nil, nil
			p.mu.Unlock()
		})
	}
}
