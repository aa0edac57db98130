package fleet

import (
	"io"

	"schedinspector/internal/obs"
)

// WriteTo re-renders the parsed scrape in the Prometheus text format
// through obs's own exposition lines, so it is byte-identical to the
// obs.Registry.WriteProm output it was parsed from: same family order,
// same HELP/TYPE lines, same sorted-label rendering and value formatting,
// histograms as cumulative buckets (le spliced last) followed by _sum and
// _count. The round-trip is the parser's correctness oracle — see
// TestParsePromRoundTrip — and makes a Scrape a lossless intermediate
// representation for re-export. ParseProm accepts only label names obs
// renders, so a parsed scrape always renders.
func (s *Scrape) WriteTo(w io.Writer) (int64, error) {
	var b []byte
	for _, f := range s.Families {
		b = obs.AppendPromFamily(b, f.Name, f.Help, f.Type)
		for _, sm := range f.Samples {
			b = obs.AppendPromSample(b, f.Name, sm.Labels, sm.Value)
		}
		for i := range f.Histograms {
			h := &f.Histograms[i]
			b = obs.AppendPromHistogram(b, f.Name, h.Labels, len(h.Buckets), func(i int) (float64, uint64) {
				return h.Buckets[i].Upper, h.Buckets[i].CumCount
			}, h.Sum)
		}
	}
	n, err := w.Write(b)
	return int64(n), err
}
