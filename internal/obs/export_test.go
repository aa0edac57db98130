package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
)

// WritePromFmt is the exposition renderer as it was before the append
// functions: one fmt.Fprintf per line through a bufio.Writer. It is the
// oracle the live renderer must match byte for byte (render_test.go).
func WritePromFmt(r *Registry, w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]family, len(names))
	for i, n := range names {
		fams[i] = *r.fams[n]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for i := range fams {
		f := &fams[i]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			name, labels := f.name, s.labels
			switch m := s.metric.(type) {
			case *Counter:
				fmt.Fprintf(bw, "%s%s %s\n", name, labels, fmtValue(m.Value()))
			case *Gauge:
				fmt.Fprintf(bw, "%s%s %s\n", name, labels, fmtValue(m.Value()))
			case gaugeFunc:
				fmt.Fprintf(bw, "%s%s %s\n", name, labels, fmtValue(m()))
			case *Histogram:
				prefix, suffix := "{", "}"
				if labels != "" {
					prefix = labels[:len(labels)-1] + ","
				}
				var cum uint64
				for i, ub := range m.upper {
					cum += m.counts[i].Load()
					fmt.Fprintf(bw, "%s_bucket%sle=\"%s\"%s %d\n", name, prefix, fmtValue(ub), suffix, cum)
				}
				cum += m.inf.Load()
				fmt.Fprintf(bw, "%s_bucket%sle=\"+Inf\"%s %d\n", name, prefix, suffix, cum)
				fmt.Fprintf(bw, "%s_sum%s %s\n", name, labels, fmtValue(m.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", name, labels, cum)
			default:
				panic(fmt.Sprintf("obs: no fmt rendering for %T", m))
			}
		}
	}
	return bw.Flush()
}

// fmtValue is appendValue as it was.
func fmtValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}
