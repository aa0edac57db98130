package core

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// TrainLogger receives per-epoch training telemetry. Implementations must
// not retain the EpochStats value beyond the call (it is plain data, so a
// copy is free).
type TrainLogger interface {
	LogEpoch(EpochStats)
}

// EpochColumns is the canonical telemetry column order used by the CSV
// logger and readable by ReadEpochCSV.
func EpochColumns() []string {
	return []string{
		"epoch", "mean_reward", "reward_std", "mean_improvement",
		"mean_pct_improvement", "rejection_ratio", "policy_loss",
		"value_loss", "entropy", "approx_kl", "policy_iters", "steps",
		"seconds",
	}
}

// epochRow flattens st in EpochColumns order.
func epochRow(st EpochStats) []float64 {
	return []float64{
		float64(st.Epoch), st.MeanReward, st.RewardStd, st.MeanImprovement,
		st.MeanPctImprovement, st.RejectionRatio, st.PolicyLoss,
		st.ValueLoss, st.Entropy, st.ApproxKL, float64(st.PolicyIters),
		float64(st.Steps), st.Seconds,
	}
}

// CSVTrainLogger writes one telemetry row per epoch, with a header on the
// first row. Call Flush (or Close on the underlying file) when done.
type CSVTrainLogger struct {
	w      *csv.Writer
	header bool
}

// NewCSVTrainLogger writes epochs to w as CSV.
func NewCSVTrainLogger(w io.Writer) *CSVTrainLogger {
	return &CSVTrainLogger{w: csv.NewWriter(w)}
}

// LogEpoch implements TrainLogger.
func (l *CSVTrainLogger) LogEpoch(st EpochStats) {
	if !l.header {
		l.w.Write(EpochColumns())
		l.header = true
	}
	row := epochRow(st)
	rec := make([]string, len(row))
	for i, v := range row {
		rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	l.w.Write(rec)
	l.w.Flush() // a crash mid-training keeps every completed epoch on disk
}

// Flush forces buffered rows out and reports any write error.
func (l *CSVTrainLogger) Flush() error {
	l.w.Flush()
	return l.w.Error()
}

// JSONLTrainLogger writes one JSON object per epoch.
type JSONLTrainLogger struct {
	enc *json.Encoder
}

// NewJSONLTrainLogger writes epochs to w as JSON lines.
func NewJSONLTrainLogger(w io.Writer) *JSONLTrainLogger {
	return &JSONLTrainLogger{enc: json.NewEncoder(w)}
}

// jsonEpoch fixes the wire names of the JSONL telemetry records to the
// same vocabulary as the CSV columns.
type jsonEpoch struct {
	Epoch              int     `json:"epoch"`
	MeanReward         float64 `json:"mean_reward"`
	RewardStd          float64 `json:"reward_std"`
	MeanImprovement    float64 `json:"mean_improvement"`
	MeanPctImprovement float64 `json:"mean_pct_improvement"`
	RejectionRatio     float64 `json:"rejection_ratio"`
	PolicyLoss         float64 `json:"policy_loss"`
	ValueLoss          float64 `json:"value_loss"`
	Entropy            float64 `json:"entropy"`
	ApproxKL           float64 `json:"approx_kl"`
	PolicyIters        int     `json:"policy_iters"`
	Steps              int     `json:"steps"`
	Seconds            float64 `json:"seconds"`
}

// LogEpoch implements TrainLogger.
func (l *JSONLTrainLogger) LogEpoch(st EpochStats) {
	l.enc.Encode(jsonEpoch{
		Epoch: st.Epoch, MeanReward: st.MeanReward, RewardStd: st.RewardStd,
		MeanImprovement: st.MeanImprovement, MeanPctImprovement: st.MeanPctImprovement,
		RejectionRatio: st.RejectionRatio, PolicyLoss: st.PolicyLoss,
		ValueLoss: st.ValueLoss, Entropy: st.Entropy, ApproxKL: st.ApproxKL,
		PolicyIters: st.PolicyIters, Steps: st.Steps, Seconds: st.Seconds,
	})
}

// ReadEpochJSONL parses telemetry written by JSONLTrainLogger back into
// EpochStats.
func ReadEpochJSONL(r io.Reader) ([]EpochStats, error) {
	dec := json.NewDecoder(r)
	var out []EpochStats
	for dec.More() {
		var e jsonEpoch
		if err := dec.Decode(&e); err != nil {
			return out, fmt.Errorf("core: telemetry JSONL record %d: %w", len(out)+1, err)
		}
		out = append(out, EpochStats{
			Epoch: e.Epoch, MeanReward: e.MeanReward, RewardStd: e.RewardStd,
			MeanImprovement: e.MeanImprovement, MeanPctImprovement: e.MeanPctImprovement,
			RejectionRatio: e.RejectionRatio, PolicyLoss: e.PolicyLoss,
			ValueLoss: e.ValueLoss, Entropy: e.Entropy, ApproxKL: e.ApproxKL,
			PolicyIters: e.PolicyIters, Steps: e.Steps, Seconds: e.Seconds,
		})
	}
	return out, nil
}

// ReadEpochCSV parses telemetry written by CSVTrainLogger back into
// EpochStats, tolerating extra or reordered columns (it matches by header
// name and ignores names it does not know).
func ReadEpochCSV(r io.Reader) ([]EpochStats, error) {
	cr := csv.NewReader(r)
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("core: telemetry header: %w", err)
	}
	col := make(map[string]int, len(head))
	for i, name := range head {
		col[name] = i
	}
	if _, ok := col["epoch"]; !ok {
		return nil, fmt.Errorf("core: telemetry CSV has no epoch column")
	}
	field := func(rec []string, name string) float64 {
		i, ok := col[name]
		if !ok || i >= len(rec) {
			return 0
		}
		v, _ := strconv.ParseFloat(rec[i], 64)
		return v
	}
	var out []EpochStats
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("core: telemetry row %d: %w", len(out)+2, err)
		}
		out = append(out, EpochStats{
			Epoch:              int(field(rec, "epoch")),
			MeanReward:         field(rec, "mean_reward"),
			RewardStd:          field(rec, "reward_std"),
			MeanImprovement:    field(rec, "mean_improvement"),
			MeanPctImprovement: field(rec, "mean_pct_improvement"),
			RejectionRatio:     field(rec, "rejection_ratio"),
			PolicyLoss:         field(rec, "policy_loss"),
			ValueLoss:          field(rec, "value_loss"),
			Entropy:            field(rec, "entropy"),
			ApproxKL:           field(rec, "approx_kl"),
			PolicyIters:        int(field(rec, "policy_iters")),
			Steps:              int(field(rec, "steps")),
			Seconds:            field(rec, "seconds"),
		})
	}
}
