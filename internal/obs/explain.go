package obs

// Explain records: the per-decision payload of the flight recorder. Where
// a span says *that* a decision happened and how long it took, the explain
// record says *why*: the exact feature vector the policy observed, its raw
// logits and action distribution, the sampled (or greedy) verdict, and the
// scheduling context (queue depth, utilization, the job's rejection count
// against MAX_REJECTION_TIMES) — everything the paper's §5 behavior
// analysis needs to reconstruct any individual decision after the fact.
//
// Records deliberately carry no wall-clock time: every field is a pure
// function of (seed, epoch, trajectory, decision sequence), so the set of
// records from a run is bit-identical at any worker count — order within
// the ring is the only thing scheduling may permute, which is why the
// analysis layer sorts by (Epoch, Traj, Seq) before computing anything.

// ExplainRecord is one fully-instrumented inspector decision. The job
// identified by JobID is the base policy's pick at this scheduling point —
// the decision under inspection.
type ExplainRecord struct {
	Epoch int     `json:"epoch,omitempty"` // training epoch (0 outside training)
	Traj  int     `json:"traj"`            // trajectory / episode slot
	Seq   int     `json:"seq"`             // decision index within the trajectory
	Time  float64 `json:"t"`               // simulation time of the decision

	// The inspected decision: the base policy's picked job.
	JobID int     `json:"job"`
	Wait  float64 `json:"wait"`
	Procs int     `json:"procs"`
	Est   float64 `json:"est"`

	// Rejection accounting against the MAX_REJECTION_TIMES cap.
	Rejections    int `json:"rejections"`
	MaxRejections int `json:"max_rejections"`

	// Cluster context. Utilization is the allocated fraction
	// 1 - free/total; QueueLen counts waiting jobs including the pick.
	QueueLen    int     `json:"queue"`
	FreeProcs   int     `json:"free"`
	TotalProcs  int     `json:"total"`
	Utilization float64 `json:"util"`

	// What the policy saw and produced. TraceRing.EmitDecision copies the
	// slices; a decoded record owns its own.
	Features []float64 `json:"features"`
	Logits   []float64 `json:"logits"`
	Probs    []float64 `json:"probs"`
	Action   int       `json:"action"`
	Sampled  bool      `json:"sampled"` // sampled from the distribution vs greedy argmax
	Rejected bool      `json:"rejected"`
}

// ExplainHeader is the meta record (one JSONL line) labeling the feature
// indices of every decision record up to the next header.
type ExplainHeader struct {
	Kind          string   `json:"kind"` // "explain_header"
	Mode          string   `json:"mode"` // feature mode name
	Features      []string `json:"features"`
	MaxRejections int      `json:"max_rejections"`
}
