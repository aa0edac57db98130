package online

import (
	"fmt"

	"schedinspector/internal/explain"
	"schedinspector/internal/obs"
	"schedinspector/internal/workload"
)

// Replay-window management: tailing the live flight ring and turning a
// window of served decisions back into a workload trace the trainer and
// evaluator can replay.

// Reconstruction floors: a window that deduplicates down to fewer jobs
// than this cannot support even a clamped training sequence or a
// meaningful shadow evaluation, so the cycle keeps collecting instead.
const (
	minTrainJobs   = 8
	minHoldoutJobs = 4
)

// The cycle's fixed shape: the newest holdoutFrac of the window is held
// out for shadow evaluation, candidates fine-tune at fineTuneLR, and
// PromotedDir keeps the newest promotedKeep checkpoints.
const (
	holdoutFrac  = 0.2
	fineTuneLR   = 1e-4
	promotedKeep = 4
)

// tail pulls a fresh ring snapshot and appends the decisions the loop has
// not seen yet (Seq-deduplicated) to the sliding window. A corrupt image
// counts against corrupt_windows but its decoded prefix is still consumed
// — a torn tail loses the torn records, never the loop.
func (l *Loop) tail() {
	img := l.cfg.Source.Snapshot()
	recs, newest, err := explain.TailDecisions(img, l.lastSeq)
	if err != nil {
		l.m.corruptWindows.Inc()
		l.fail(fmt.Errorf("tail: %w", err))
	}
	l.lastSeq = newest
	if len(recs) > 0 {
		l.window = append(l.window, recs...)
		l.m.tailed.Add(float64(len(recs)))
	}
	if over := len(l.window) - l.cfg.MaxWindow; over > 0 {
		// Copy down so the evicted records' backing array is released.
		l.window = append(l.window[:0:0], l.window[over:]...)
	}
	l.m.windowRecords.Set(float64(len(l.window)))
	l.mirror(func(st *Status) {
		st.WindowRecords = len(l.window)
		st.TailedTotal += uint64(len(recs))
		st.LastSeq = l.lastSeq
	})
}

// reconstruct splits the window by time — older records train, the newest
// holdoutFrac are held out for shadow evaluation — and rebuilds a
// validated workload trace from each part. Held-out decisions are by
// construction decisions the candidate never trained on.
func (l *Loop) reconstruct() (train, hold *workload.Trace, err error) {
	n := len(l.window)
	holdN := int(float64(n) * holdoutFrac)
	if holdN < minHoldoutJobs {
		holdN = minHoldoutJobs
	}
	if holdN >= n {
		return nil, nil, fmt.Errorf("window of %d records cannot spare a holdout", n)
	}
	train, err = ReconstructTrace(l.window[:n-holdN], "online-train")
	if err != nil {
		return nil, nil, err
	}
	hold, err = ReconstructTrace(l.window[n-holdN:], "online-holdout")
	if err != nil {
		return nil, nil, err
	}
	if train.Len() < minTrainJobs || hold.Len() < minHoldoutJobs {
		return nil, nil, fmt.Errorf("window reconstructs to %d train / %d holdout jobs, need %d/%d",
			train.Len(), hold.Len(), minTrainJobs, minHoldoutJobs)
	}
	return train, hold, nil
}

// ReconstructTrace converts a window of served decision records into a
// synthetic replay trace for retraining and shadow evaluation.
//
// What the decision stream does and does not contain shapes the mapping:
//
//   - Re-inspections are dropped: a record with Rejections > 0 is the same
//     job coming back after an earlier rejection, not a new arrival.
//   - Run is unobservable at decision time (the job had not finished when
//     the record was emitted), so the estimate stands in for the runtime —
//     the same information the serving model itself decided on.
//   - Exact arrival times are likewise not in the record, so arrivals are
//     spaced evenly at a Little's-law estimate of the inter-arrival gap:
//     mean waiting time over mean queue length. This preserves the
//     window's load level, which is what the features the model trains on
//     (queue length, utilization, wait) actually respond to.
//
// The result is validated; an error means the window cannot be replayed
// and the cycle must keep the current model serving.
func ReconstructTrace(recs []obs.ExplainRecord, name string) (*workload.Trace, error) {
	var (
		kept              []obs.ExplainRecord
		waitSum, queueSum float64
		maxProcs          int
	)
	for _, r := range recs {
		if r.Rejections > 0 {
			continue
		}
		if r.Procs <= 0 || r.Est <= 0 {
			continue
		}
		kept = append(kept, r)
		if r.Wait > 0 {
			waitSum += r.Wait
		}
		if r.QueueLen > 1 {
			queueSum += float64(r.QueueLen)
		} else {
			queueSum++
		}
		if r.TotalProcs > maxProcs {
			maxProcs = r.TotalProcs
		}
		if r.Procs > maxProcs {
			maxProcs = r.Procs
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("online: window %q reconstructs to no first-inspection jobs", name)
	}
	gap := 1.0
	if waitSum > 0 && queueSum > 0 {
		if g := (waitSum / float64(len(kept))) / (queueSum / float64(len(kept))); g > 0 {
			gap = g
		}
	}
	jobs := make([]workload.Job, len(kept))
	for i, r := range kept {
		jobs[i] = workload.Job{
			ID:     i + 1,
			Submit: float64(i) * gap,
			Run:    r.Est,
			Est:    r.Est,
			Procs:  r.Procs,
		}
	}
	tr := &workload.Trace{Name: name, MaxProcs: maxProcs, Jobs: jobs}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("online: reconstructed window %q invalid: %w", name, err)
	}
	return tr, nil
}
