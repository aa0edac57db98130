package fleet

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"schedinspector/internal/obs"
)

// WriteTo re-renders the parsed scrape in the Prometheus text format,
// byte-identical to the obs.Registry.WriteProm output it was parsed from:
// same family order, same HELP/TYPE lines, same sorted-label rendering,
// same %g value formatting, histograms as cumulative buckets (le spliced
// last) followed by _sum and _count. The round-trip is the parser's
// correctness oracle — see TestParsePromRoundTrip — and makes a Scrape a
// lossless intermediate representation for re-export.
func (s *Scrape) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	for _, f := range s.Families {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, obs.EscapeHelp(f.Help))
		}
		if f.Type != "" {
			fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type)
		}
		for _, sm := range f.Samples {
			fmt.Fprintf(bw, "%s%s %s\n", f.Name, renderLabels(sm.Labels, ""), obs.FormatValue(sm.Value))
		}
		for i := range f.Histograms {
			h := &f.Histograms[i]
			for _, b := range h.Buckets {
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.Name,
					renderLabels(h.Labels, obs.FormatValue(b.Upper)), b.CumCount)
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n", f.Name, renderLabels(h.Labels, ""), obs.FormatValue(h.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", f.Name, renderLabels(h.Labels, ""), h.Count)
		}
	}
	err := bw.Flush()
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// renderLabels renders the `{k="v",...}` suffix with sorted keys and
// escaped values, exactly as obs does; a non-empty le appends the
// synthetic bucket label last.
func renderLabels(labels map[string]string, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(obs.EscapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
