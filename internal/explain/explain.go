// Package explain reads decision flight-recorder traces (the JSONL files
// written by TrainConfig.Flight / EvalConfig.Flight / inspectord) back into
// memory and answers the questions the paper's §5 behavior analysis poses:
// why was this job rejected, what was the cluster doing at the time, and
// which features separate accepted from rejected decisions.
//
// Everything here is deterministic: records are sorted by their stable
// (Epoch, Traj, Seq) key on load, so the same trace file produces the same
// analysis bytes regardless of the worker count or ring order that
// produced it.
package explain

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"schedinspector/internal/ckpt"
	"schedinspector/internal/obs"
	"schedinspector/internal/stats"
)

// Trace is a parsed flight-recorder trace.
type Trace struct {
	// Header is the explain_header line (nil when the trace has none, e.g.
	// a spans-only file). When several headers appear — a served model was
	// hot-swapped mid-trace — the last one wins.
	Header *obs.ExplainHeader
	// Records holds every decision line, sorted by (Epoch, Traj, Seq).
	Records []obs.ExplainRecord
	// Spans holds every span line in file order.
	Spans []obs.Span
	// Procs holds every runtime-sampler record in file order — the GC/heap
	// context stream a ProcSampler threads into binary traces.
	Procs []obs.ProcStats
}

// kindProbe peeks at the line discriminator before a full decode.
type kindProbe struct {
	Kind string `json:"kind"`
}

// ReadTrace parses an interleaved flight-recorder JSONL stream. Lines are
// discriminated by their "kind" field ("span", "explain_header",
// "decision", "proc"); blank lines are skipped and unknown kinds are
// ignored so traces remain forward-compatible.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe kindProbe
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("explain: line %d: %w", lineNo, err)
		}
		switch probe.Kind {
		case "span":
			var s obs.Span
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, fmt.Errorf("explain: line %d: %w", lineNo, err)
			}
			tr.Spans = append(tr.Spans, s)
		case "explain_header":
			var h obs.ExplainHeader
			if err := json.Unmarshal(line, &h); err != nil {
				return nil, fmt.Errorf("explain: line %d: %w", lineNo, err)
			}
			tr.Header = &h
		case "decision":
			var d obs.ExplainRecord
			if err := json.Unmarshal(line, &d); err != nil {
				return nil, fmt.Errorf("explain: line %d: %w", lineNo, err)
			}
			tr.Records = append(tr.Records, d)
		case "proc":
			var p obs.ProcStats
			if err := json.Unmarshal(line, &p); err != nil {
				return nil, fmt.Errorf("explain: line %d: %w", lineNo, err)
			}
			tr.Procs = append(tr.Procs, p)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("explain: %w", err)
	}
	sortRecords(tr.Records)
	return tr, nil
}

// ftraceV1Magic opened every version 1 .ftrace file, the container that
// preceded .ftrace's ckpt frames.
const ftraceV1Magic = "SCHDFTR\x01"

// ReadTraceFile reads a flight-recorder trace from a file path, sniffing
// the format: files opening with a ckpt frame decode through ReadFTrace,
// everything else parses as JSONL via ReadTrace. A version 1 .ftrace file
// is refused with an error that says so.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("explain: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64*1024)
	head, _ := br.Peek(ckpt.FrameHeaderSize)
	if strings.HasPrefix(string(head), ftraceV1Magic) {
		return nil, fmt.Errorf("explain: %s is a version 1 flight trace, which this build no longer reads (it reads version %d); record it again",
			path, obs.FTraceVersion)
	}
	if _, ok := ckpt.FrameVersion(head); ok {
		return ReadFTrace(br) // a frame of another version fails there, naming both
	}
	return ReadTrace(br)
}

// sortRecords orders by the stable decision key (Epoch, Traj, Seq) — the
// one ordering that is identical at any worker count.
func sortRecords(recs []obs.ExplainRecord) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		if a.Traj != b.Traj {
			return a.Traj < b.Traj
		}
		return a.Seq < b.Seq
	})
}

// FeatureNames returns the header's feature labels, or synthesized
// "f0".."fN" labels sized to the first record when the trace has no header.
func (t *Trace) FeatureNames() []string {
	if t.Header != nil && len(t.Header.Features) > 0 {
		return t.Header.Features
	}
	if len(t.Records) == 0 {
		return nil
	}
	names := make([]string, len(t.Records[0].Features))
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	return names
}

// JobTimeline returns every decision about jobID, in (Epoch, Traj, Seq)
// order — the job's full inspection history across trajectories.
func (t *Trace) JobTimeline(jobID int) []obs.ExplainRecord {
	var out []obs.ExplainRecord
	for _, r := range t.Records {
		if r.JobID == jobID {
			out = append(out, r)
		}
	}
	return out
}

// Window returns the decisions whose simulation time falls in [t0, t1).
func (t *Trace) Window(t0, t1 float64) []obs.ExplainRecord {
	var out []obs.ExplainRecord
	for _, r := range t.Records {
		if r.Time >= t0 && r.Time < t1 {
			out = append(out, r)
		}
	}
	return out
}

// JobSummary aggregates every decision that inspected one job.
type JobSummary struct {
	JobID         int
	Decisions     int     // times the job was the base policy's pick
	Rejects       int     // times the inspector sent it back
	MaxRejections int     // highest rejection count observed for it
	MeanProb      float64 // mean modeled reject probability across decisions
}

// TopRejected aggregates per job and returns the n most-rejected jobs,
// most rejections first (ties broken by job ID for determinism).
func (t *Trace) TopRejected(n int) []JobSummary {
	byJob := map[int]*JobSummary{}
	for _, r := range t.Records {
		s := byJob[r.JobID]
		if s == nil {
			s = &JobSummary{JobID: r.JobID}
			byJob[r.JobID] = s
		}
		s.Decisions++
		if r.Rejected {
			s.Rejects++
		}
		if r.Rejections > s.MaxRejections {
			s.MaxRejections = r.Rejections
		}
		if len(r.Probs) > 1 {
			s.MeanProb += r.Probs[1]
		}
	}
	out := make([]JobSummary, 0, len(byJob))
	for _, s := range byJob {
		s.MeanProb /= float64(s.Decisions)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rejects != out[j].Rejects {
			return out[i].Rejects > out[j].Rejects
		}
		return out[i].JobID < out[j].JobID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// FeatureStat is the reject-attribution summary for one feature: its mean
// over accepted vs rejected decisions and the delta between them. A large
// |Delta| marks a feature the policy's verdict correlates with — the §5
// analysis, over normalized features instead of raw CDFs.
type FeatureStat struct {
	Name       string
	MeanAccept float64
	MeanReject float64
	Delta      float64 // MeanReject - MeanAccept
}

// FeatureStats computes the per-feature accept/reject means over all
// decisions, plus the accept and reject counts. Records whose feature
// vector length disagrees with the first record's are skipped.
func (t *Trace) FeatureStats() (stats []FeatureStat, accepts, rejects int) {
	names := t.FeatureNames()
	if len(names) == 0 {
		return nil, 0, 0
	}
	dim := len(names)
	accSum := make([]float64, dim)
	rejSum := make([]float64, dim)
	for _, r := range t.Records {
		if len(r.Features) != dim {
			continue
		}
		if r.Rejected {
			rejects++
			for i, v := range r.Features {
				rejSum[i] += v
			}
		} else {
			accepts++
			for i, v := range r.Features {
				accSum[i] += v
			}
		}
	}
	stats = make([]FeatureStat, dim)
	for i := range stats {
		st := FeatureStat{Name: names[i]}
		if accepts > 0 {
			st.MeanAccept = accSum[i] / float64(accepts)
		}
		if rejects > 0 {
			st.MeanReject = rejSum[i] / float64(rejects)
		}
		st.Delta = st.MeanReject - st.MeanAccept
		stats[i] = st
	}
	return stats, accepts, rejects
}

// FeatureCDF is the Figure 13 pair for one feature: its empirical CDF over
// all decisions and over the rejected ones. A rejected CDF that rises faster
// at low x means the policy rejects more often when the feature is small.
type FeatureCDF struct {
	Name     string
	Total    *stats.CDF
	Rejected *stats.CDF
}

// FeatureCDFs builds the per-feature CDF pairs over all decisions, labelled
// from the trace header so every feature mode reports under its own names.
// Records whose feature vector length disagrees with the header are
// skipped, as in FeatureStats.
func (t *Trace) FeatureCDFs() []FeatureCDF {
	names := t.FeatureNames()
	total := make([][]float64, len(names))
	rejected := make([][]float64, len(names))
	for _, r := range t.Records {
		if len(r.Features) != len(names) {
			continue
		}
		for i, v := range r.Features {
			total[i] = append(total[i], v)
			if r.Rejected {
				rejected[i] = append(rejected[i], v)
			}
		}
	}
	out := make([]FeatureCDF, len(names))
	for i, name := range names {
		out[i] = FeatureCDF{Name: name, Total: stats.NewCDF(total[i]), Rejected: stats.NewCDF(rejected[i])}
	}
	return out
}

// UtilBucket is one bin of the reject-rate-vs-utilization curve.
type UtilBucket struct {
	Lo, Hi    float64
	Decisions int
	Rejects   int
}

// Rate returns the bucket's reject rate, NaN when empty.
func (b UtilBucket) Rate() float64 {
	if b.Decisions == 0 {
		return math.NaN()
	}
	return float64(b.Rejects) / float64(b.Decisions)
}

// RejectByUtilization bins every decision by cluster utilization into n
// uniform buckets over [0, 1] (utilization exactly 1 lands in the last
// bucket) and counts rejects per bin.
func (t *Trace) RejectByUtilization(n int) []UtilBucket {
	if n <= 0 {
		n = 10
	}
	out := make([]UtilBucket, n)
	for i := range out {
		out[i].Lo = float64(i) / float64(n)
		out[i].Hi = float64(i+1) / float64(n)
	}
	for _, r := range t.Records {
		i := int(r.Utilization * float64(n))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		out[i].Decisions++
		if r.Rejected {
			out[i].Rejects++
		}
	}
	return out
}

// WriteRecords renders decisions as a table, one row per decision.
func WriteRecords(w io.Writer, recs []obs.ExplainRecord) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "epoch\ttraj\tseq\tt\tjob\twait\tprocs\test\trej\tqueue\tutil\tp(rej)\tverdict")
	for _, r := range recs {
		p := math.NaN()
		if len(r.Probs) > 1 {
			p = r.Probs[1]
		}
		verdict := "accept"
		if r.Rejected {
			verdict = "reject"
		}
		if !r.Sampled {
			verdict += "*" // greedy argmax, not sampled
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.0f\t%d\t%.0f\t%d\t%.0f\t%d/%d\t%d\t%.2f\t%.3f\t%s\n",
			r.Epoch, r.Traj, r.Seq, r.Time, r.JobID, r.Wait, r.Procs, r.Est,
			r.Rejections, r.MaxRejections, r.QueueLen, r.Utilization, p, verdict)
	}
	return tw.Flush()
}

// WriteTopRejected renders a TopRejected summary table.
func WriteTopRejected(w io.Writer, jobs []JobSummary) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "job\trejects\tdecisions\tmax streak\tmean p(rej)")
	for _, j := range jobs {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.3f\n",
			j.JobID, j.Rejects, j.Decisions, j.MaxRejections, j.MeanProb)
	}
	return tw.Flush()
}

// WriteFeatureStats renders the reject-attribution table, features ordered
// as in the trace header, with a bar visualizing |Delta| relative to the
// largest delta.
func WriteFeatureStats(w io.Writer, stats []FeatureStat, accepts, rejects int) error {
	fmt.Fprintf(w, "%d decisions (%d accepted, %d rejected)\n", accepts+rejects, accepts, rejects)
	maxDelta := 0.0
	for _, s := range stats {
		if d := math.Abs(s.Delta); d > maxDelta {
			maxDelta = d
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "feature\tmean(accept)\tmean(reject)\tdelta\t")
	for _, s := range stats {
		bar := ""
		if maxDelta > 0 {
			n := int(math.Round(math.Abs(s.Delta) / maxDelta * 20))
			bar = strings.Repeat("#", n)
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%+.4f\t%s\n", s.Name, s.MeanAccept, s.MeanReject, s.Delta, bar)
	}
	return tw.Flush()
}

// WriteFeatureCDFs renders the Figure 13 table: the decision counts, then
// per feature the total and rejected CDFs at 0.25, 0.5 and 0.75 and the
// largest value any rejected decision had.
func WriteFeatureCDFs(w io.Writer, cdfs []FeatureCDF) error {
	if len(cdfs) > 0 {
		n, rej := cdfs[0].Total.N(), cdfs[0].Rejected.N()
		ratio := 0.0
		if n > 0 {
			ratio = float64(rej) / float64(n)
		}
		fmt.Fprintf(w, "%d decisions, %d rejected (ratio %.2f)\n", n, rej, ratio)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "feature\tCDF@0.25 total/rej\tCDF@0.5 total/rej\tCDF@0.75 total/rej\tmax rejected x")
	for _, c := range cdfs {
		if c.Rejected.N() == 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t(never rejected)\n", c.Name)
			continue
		}
		fmt.Fprintf(tw, "%s\t%.2f/%.2f\t%.2f/%.2f\t%.2f/%.2f\t%.2f\n", c.Name,
			c.Total.At(0.25), c.Rejected.At(0.25),
			c.Total.At(0.5), c.Rejected.At(0.5),
			c.Total.At(0.75), c.Rejected.At(0.75),
			c.Rejected.Quantile(1))
	}
	return tw.Flush()
}

// WriteRejectByUtilization renders the reject-rate-vs-utilization curve as
// an ASCII bar plot (one row per bucket, bar length ∝ reject rate).
func WriteRejectByUtilization(w io.Writer, buckets []UtilBucket) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "util\tdecisions\trejects\trate\t")
	for _, b := range buckets {
		rate := b.Rate()
		if math.IsNaN(rate) {
			fmt.Fprintf(tw, "%.1f-%.1f\t0\t0\t-\t\n", b.Lo, b.Hi)
			continue
		}
		bar := strings.Repeat("#", int(math.Round(rate*40)))
		fmt.Fprintf(tw, "%.1f-%.1f\t%d\t%d\t%.3f\t%s\n", b.Lo, b.Hi, b.Decisions, b.Rejects, rate, bar)
	}
	return tw.Flush()
}
