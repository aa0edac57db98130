package core

import "schedinspector/internal/obs"

// epochSpanName names the span each training epoch emits to the flight
// recorder. Its attributes are the epoch's EpochStats, keyed by epochAttrs.
const epochSpanName = "epoch"

// epochAttrs maps each attribute key of the epoch span to its EpochStats
// field, in the order the span carries them. The writer (ApplyShard) and the
// reader (EpochStatsFromSpans) both go through it, so no other code knows
// the key names. Exactly one of f and i is set.
var epochAttrs = [...]struct {
	key string
	f   func(*EpochStats) *float64
	i   func(*EpochStats) *int
}{
	{key: "epoch", i: func(s *EpochStats) *int { return &s.Epoch }},
	{key: "steps", i: func(s *EpochStats) *int { return &s.Steps }},
	{key: "reject_ratio", f: func(s *EpochStats) *float64 { return &s.RejectionRatio }},
	{key: "mean_reward", f: func(s *EpochStats) *float64 { return &s.MeanReward }},
	{key: "reward_std", f: func(s *EpochStats) *float64 { return &s.RewardStd }},
	{key: "mean_improvement", f: func(s *EpochStats) *float64 { return &s.MeanImprovement }},
	{key: "mean_pct_improvement", f: func(s *EpochStats) *float64 { return &s.MeanPctImprovement }},
	{key: "policy_loss", f: func(s *EpochStats) *float64 { return &s.PolicyLoss }},
	{key: "value_loss", f: func(s *EpochStats) *float64 { return &s.ValueLoss }},
	{key: "entropy", f: func(s *EpochStats) *float64 { return &s.Entropy }},
	{key: "approx_kl", f: func(s *EpochStats) *float64 { return &s.ApproxKL }},
	{key: "policy_iters", i: func(s *EpochStats) *int { return &s.PolicyIters }},
	{key: "seconds", f: func(s *EpochStats) *float64 { return &s.Seconds }},
}

// appendEpochAttrs appends every field of st as an epoch span attribute.
func appendEpochAttrs(attrs []obs.Attr, st EpochStats) []obs.Attr {
	for _, a := range epochAttrs {
		if a.i != nil {
			attrs = append(attrs, obs.Attr{Key: a.key, Num: float64(*a.i(&st))})
		} else {
			attrs = append(attrs, obs.Attr{Key: a.key, Num: *a.f(&st)})
		}
	}
	return attrs
}

// EpochStatsFromSpans decodes the epoch spans among spans, in their order,
// back into the EpochStats the trainer returned for those epochs: the
// learning curves of a run recorded with TrainConfig.Flight. Other spans
// and attribute keys it does not know are skipped.
func EpochStatsFromSpans(spans []obs.Span) []EpochStats {
	var out []EpochStats
	for i := range spans {
		if spans[i].Name != epochSpanName {
			continue
		}
		var st EpochStats
		for _, at := range spans[i].Attrs {
			for _, a := range epochAttrs {
				switch {
				case a.key != at.Key:
				case a.i != nil:
					*a.i(&st) = int(at.Num)
				default:
					*a.f(&st) = at.Num
				}
			}
		}
		out = append(out, st)
	}
	return out
}
