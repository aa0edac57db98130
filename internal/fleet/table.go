package fleet

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// WriteTable renders the status as aligned text for the -once mode and
// smoke scripts: a target table, the dist summary, then active alerts.
func WriteTable(w io.Writer, fs *FleetStatus) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TARGET\tKIND\tSTATE\tDECISIONS/S\tEPOCHS/S\tLOCK-WAIT-P99\tEXCHANGE-P99\tWAITING\tGEN\tDETAIL")
	for _, t := range fs.Targets {
		state := "up"
		detail := fmt.Sprintf("%d pts", t.Points)
		if !t.Up {
			state = "DOWN"
			detail = t.LastErr
		}
		queue := "-"
		if depth, ok := t.Latest["schedinspector_inspect_queue_depth"]; ok {
			if capacity, ok := t.Latest["schedinspector_inspect_queue_capacity"]; ok && capacity > 0 {
				queue = fmt.Sprintf("%.0f/%.0f", depth, capacity)
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			t.Name, t.Kind, state,
			fmtNum(t.Rates, "schedinspector_inspect_decisions_total"),
			fmtNum(t.Rates, "schedinspector_dist_epochs_total"),
			fmtSeconds(t.Quantiles, "schedinspector_inspect_coalesce_seconds/p99"),
			fmtSeconds(t.Quantiles, "schedinspector_dist_exchange_seconds/p99"),
			queue,
			fmtNum(t.Latest, "schedinspector_model_generation"),
			detail)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if d := fs.Dist; d != nil {
		fmt.Fprintf(w, "\ndist: %d workers, %.2f epochs/s fleet-wide, straggler skew %.2fx",
			d.Workers, d.EpochRate, d.SkewRatio)
		if d.MaxRank != "" {
			fmt.Fprintf(w, " (max: %s)", d.MaxRank)
		}
		fmt.Fprintln(w)
	}

	if len(fs.Alerts) == 0 {
		fmt.Fprintln(w, "\nalerts: none")
	} else {
		fmt.Fprintf(w, "\nalerts: %d active\n", len(fs.Alerts))
		atw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, a := range fs.Alerts {
			fmt.Fprintf(atw, "  %s\t%s\t%s\t x%d\t%s\n", a.Severity, a.Rule, a.Target, a.Count, a.Message)
		}
		if err := atw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// fmtNum renders a present, finite value as %.2f and anything else as
// "-" — a missing derivation must not read as a real zero.
func fmtNum(m map[string]float64, key string) string {
	v, ok := m[key]
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

func fmtSeconds(m map[string]float64, key string) string {
	v, ok := m[key]
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		return "-"
	}
	if v >= 1 {
		return fmt.Sprintf("%.2fs", v)
	}
	return fmt.Sprintf("%.1fms", v*1000)
}
