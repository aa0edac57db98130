package dist

import "schedinspector/internal/obs"

// Metrics is the obs instrumentation of the distributed engine: per-round
// exchange latency and volume, per-epoch straggler wait, and peer failures. Attach
// one via Options.Metrics to export it through an obs.Registry (e.g.
// mounted at /metrics next to the rollout family).
type Metrics struct {
	// ExchangeSeconds observes the wall time of each all-to-all round: the
	// statistics gather, every reduction of the update, and the digest
	// check alike (23 per epoch at the default PPO pass counts).
	ExchangeSeconds *obs.Histogram
	// StragglerSeconds observes, once per epoch, the total time this rank
	// spent blocked in that epoch's rounds. A round returns when the
	// slowest peer's frame arrives, so whichever phase a peer is slow in —
	// rollout or its share of a gradient pass — the wait lands here.
	StragglerSeconds *obs.Histogram
	// BytesSent / BytesReceived count frame payload bytes moved through
	// the mesh (excluding the 24-byte container headers).
	BytesSent     *obs.Counter
	BytesReceived *obs.Counter
	// PeerFailures counts barrier rounds aborted by a peer error (dead
	// connection, timeout, corrupt frame).
	PeerFailures *obs.Counter
	// Epochs counts epochs completed by this worker, divergence checks
	// included.
	Epochs *obs.Counter
}

// NewMetrics registers the distributed-engine metric family on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		ExchangeSeconds: r.Histogram("schedinspector_dist_exchange_seconds",
			"Wall time of one all-to-all exchange round (statistics, each update reduction, digest).", nil, nil),
		StragglerSeconds: r.Histogram("schedinspector_dist_straggler_seconds",
			"Per epoch, total time this rank spent blocked in exchange rounds waiting on the slowest peer.", nil, nil),
		BytesSent: r.Counter("schedinspector_dist_bytes_sent_total",
			"Frame payload bytes sent to peers.", nil),
		BytesReceived: r.Counter("schedinspector_dist_bytes_received_total",
			"Frame payload bytes received from peers.", nil),
		PeerFailures: r.Counter("schedinspector_dist_peer_failures_total",
			"Exchange rounds aborted by a peer failure or timeout.", nil),
		Epochs: r.Counter("schedinspector_dist_epochs_total",
			"Distributed epochs completed by this worker.", nil),
	}
}

// Nil receivers make every observation a no-op, so the un-instrumented
// path costs one branch.

func (m *Metrics) observeSent(n int) {
	if m != nil {
		m.BytesSent.Add(float64(n))
	}
}

func (m *Metrics) observeRecv(n int) {
	if m != nil {
		m.BytesReceived.Add(float64(n))
	}
}

func (m *Metrics) observeFailure() {
	if m != nil {
		m.PeerFailures.Add(1)
	}
}

func (m *Metrics) observeExchange(seconds float64) {
	if m != nil {
		m.ExchangeSeconds.Observe(seconds)
	}
}

func (m *Metrics) observeStraggler(seconds float64) {
	if m != nil {
		m.StragglerSeconds.Observe(seconds)
	}
}

func (m *Metrics) observeEpoch() {
	if m != nil {
		m.Epochs.Add(1)
	}
}
