// Package fleet reads the Prometheus text exposition that every
// schedinspector process serves on /metrics: ParseProm parses a page into
// families, samples and assembled histograms, Scrape.WriteTo renders one
// back, and Client fetches and parses a page over HTTP. The benchmark and
// the process tests read running daemons through it.
//
// Like the rest of the module it is standard library only: the parser is
// the repo's own, sized to round-trip exactly what obs.Registry renders
// (Prometheus text exposition format 0.0.4).
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ErrTruncated marks an exposition that ends mid-line — the signature of a
// torn scrape (connection cut, partial write). Callers distinguish it from
// a malformed-but-complete document via errors.Is.
var ErrTruncated = errors.New("fleet: truncated exposition")

// ParseError is the typed failure of ParseProm: the 1-based line the
// parser gave up on and why. It wraps ErrTruncated when the document tore.
type ParseError struct {
	Line int
	Msg  string
	err  error // optional sentinel (ErrTruncated)
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("fleet: exposition line %d: %s", e.Line, e.Msg)
}

func (e *ParseError) Unwrap() error { return e.err }

// Sample is one non-histogram series sample: its label set and value.
type Sample struct {
	Labels map[string]string
	Value  float64
}

// Bucket is one cumulative histogram bucket. The +Inf bucket is always
// present and last.
type Bucket struct {
	Upper    float64 // upper bound (le), +Inf for the final bucket
	CumCount uint64  // observations <= Upper
}

// HistogramSample is one assembled histogram series: cumulative buckets
// (ending at +Inf), plus the _sum and _count samples.
type HistogramSample struct {
	Labels  map[string]string // without the synthetic le label
	Buckets []Bucket
	Sum     float64
	Count   uint64
}

// Family is one metric family: name, HELP/TYPE metadata, and its series in
// document order. Histogram families populate Histograms; everything else
// populates Samples.
type Family struct {
	Name       string
	Help       string
	Type       string // "counter", "gauge", "histogram", "untyped"
	Samples    []Sample
	Histograms []HistogramSample
}

// Scrape is one parsed exposition: families in document order plus a name
// index.
type Scrape struct {
	Families []*Family
	byName   map[string]*Family
}

// Family returns the named family, or nil.
func (s *Scrape) Family(name string) *Family {
	if s == nil {
		return nil
	}
	return s.byName[name]
}

// histogram assembly state for one label signature.
type histBuild struct {
	labels  map[string]string
	buckets []Bucket
	sum     float64
	count   uint64
	hasSum  bool
	hasCnt  bool
	order   int
}

// ParseProm parses a Prometheus text exposition (format 0.0.4) into
// families, assembling histogram buckets/_sum/_count triples back into
// HistogramSamples. It accepts everything obs.Registry.WriteProm renders —
// and round-trips it byte-for-byte through Scrape.WriteTo — and rejects
// torn or malformed documents with a *ParseError (wrapping ErrTruncated
// when the document ends mid-line).
func ParseProm(data []byte) (*Scrape, error) {
	s := &Scrape{byName: make(map[string]*Family)}
	if len(data) == 0 {
		return s, nil
	}
	if data[len(data)-1] != '\n' {
		line := 1 + strings.Count(string(data), "\n")
		return nil, &ParseError{Line: line, Msg: "document ends mid-line", err: ErrTruncated}
	}

	// Histogram assembly buffers, keyed per family by label signature.
	builds := make(map[string]map[string]*histBuild)

	var cur *Family // family of the last TYPE/HELP line, for metadata order checks
	lineNo := 0
	rest := string(data)
	for len(rest) > 0 {
		lineNo++
		var line string
		idx := strings.IndexByte(rest, '\n')
		line, rest = rest[:idx], rest[idx+1:]
		if line == "" {
			continue
		}
		if line[0] == '#' {
			f, err := s.parseMeta(line, lineNo)
			if err != nil {
				return nil, err
			}
			if f != nil {
				cur = f
			}
			continue
		}
		if err := s.parseSample(line, lineNo, cur, builds); err != nil {
			return nil, err
		}
	}

	// Seal histogram families: every build must be a complete triple.
	for famName, perSig := range builds {
		f := s.byName[famName]
		ordered := make([]*histBuild, 0, len(perSig))
		for _, b := range perSig {
			ordered = append(ordered, b)
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].order < ordered[j].order })
		for _, b := range ordered {
			hs, err := sealHistogram(famName, b)
			if err != nil {
				return nil, err
			}
			f.Histograms = append(f.Histograms, *hs)
		}
	}
	return s, nil
}

// parseMeta handles a "#" line: HELP and TYPE update family metadata,
// anything else is a comment. Returns the family a TYPE/HELP line names.
func (s *Scrape) parseMeta(line string, lineNo int) (*Family, error) {
	kind, rest, ok := cutMetaKeyword(line)
	if !ok {
		return nil, nil // plain comment
	}
	name, tail, _ := strings.Cut(rest, " ")
	if !validMetricName(name) {
		return nil, &ParseError{Line: lineNo, Msg: fmt.Sprintf("invalid metric name %q in %s line", name, kind)}
	}
	f := s.family(name)
	switch kind {
	case "HELP":
		f.Help = unescapeHelp(tail)
	case "TYPE":
		typ := strings.TrimSpace(tail)
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return nil, &ParseError{Line: lineNo, Msg: fmt.Sprintf("unknown TYPE %q for %s", typ, name)}
		}
		if f.Type != "" && f.Type != typ {
			return nil, &ParseError{Line: lineNo, Msg: fmt.Sprintf("family %s re-typed %s -> %s", name, f.Type, typ)}
		}
		if len(f.Samples)+len(f.Histograms) > 0 && f.Type == "" {
			return nil, &ParseError{Line: lineNo, Msg: fmt.Sprintf("TYPE for %s after its samples", name)}
		}
		f.Type = typ
	}
	return f, nil
}

// cutMetaKeyword splits "# HELP rest" / "# TYPE rest"; other comment
// shapes report !ok.
func cutMetaKeyword(line string) (kind, rest string, ok bool) {
	switch {
	case strings.HasPrefix(line, "# HELP "):
		return "HELP", line[len("# HELP "):], true
	case strings.HasPrefix(line, "# TYPE "):
		return "TYPE", line[len("# TYPE "):], true
	}
	return "", "", false
}

// family fetches or creates the named family in document order.
func (s *Scrape) family(name string) *Family {
	if f := s.byName[name]; f != nil {
		return f
	}
	f := &Family{Name: name}
	s.byName[name] = f
	s.Families = append(s.Families, f)
	return f
}

// parseSample parses one sample line into its family, routing histogram
// component samples (_bucket/_sum/_count of a TYPE histogram family) into
// the assembly buffers.
func (s *Scrape) parseSample(line string, lineNo int, _ *Family, builds map[string]map[string]*histBuild) error {
	name, labels, value, err := splitSample(line, lineNo)
	if err != nil {
		return err
	}

	// A histogram component belongs to the base family that was declared
	// TYPE histogram; everything else is a scalar sample of its own family.
	if base, comp := histogramComponent(s, name); base != "" {
		per := builds[base]
		if per == nil {
			per = make(map[string]*histBuild)
			builds[base] = per
		}
		le, sig := splitLE(labels)
		b := per[sig]
		if b == nil {
			lab := labels
			if comp == "bucket" {
				lab = cloneWithoutLE(labels)
			}
			b = &histBuild{labels: lab, order: len(per)}
			per[sig] = b
		}
		switch comp {
		case "bucket":
			if le == nil {
				return &ParseError{Line: lineNo, Msg: fmt.Sprintf("%s_bucket without le label", base)}
			}
			ub, perr := parseValue(*le)
			if perr != nil {
				return &ParseError{Line: lineNo, Msg: fmt.Sprintf("bad le %q: %v", *le, perr)}
			}
			if value < 0 || value != math.Trunc(value) || value >= 1<<63 {
				return &ParseError{Line: lineNo, Msg: fmt.Sprintf("bucket count %v is not a whole number", value)}
			}
			b.buckets = append(b.buckets, Bucket{Upper: ub, CumCount: uint64(value)})
		case "sum":
			if b.hasSum {
				return &ParseError{Line: lineNo, Msg: fmt.Sprintf("duplicate %s_sum", base)}
			}
			b.sum, b.hasSum = value, true
		case "count":
			if b.hasCnt {
				return &ParseError{Line: lineNo, Msg: fmt.Sprintf("duplicate %s_count", base)}
			}
			if value < 0 || value != math.Trunc(value) || value >= 1<<63 {
				return &ParseError{Line: lineNo, Msg: fmt.Sprintf("count %v is not a whole number", value)}
			}
			b.count, b.hasCnt = uint64(value), true
		}
		return nil
	}

	f := s.family(name)
	if f.Type == "histogram" {
		return &ParseError{Line: lineNo, Msg: fmt.Sprintf("bare sample %s of a histogram family", name)}
	}
	f.Samples = append(f.Samples, Sample{Labels: labels, Value: value})
	return nil
}

// histogramComponent reports the base family name and component kind when
// name is the _bucket/_sum/_count series of a family already declared
// TYPE histogram.
func histogramComponent(s *Scrape, name string) (base, comp string) {
	for _, suffix := range [...]string{"_bucket", "_sum", "_count"} {
		b, ok := strings.CutSuffix(name, suffix)
		if !ok {
			continue
		}
		if f := s.byName[b]; f != nil && f.Type == "histogram" {
			return b, suffix[1:]
		}
	}
	return "", ""
}

// splitLE extracts the le label (nil if absent) and builds a deterministic
// signature of the remaining labels, which identifies the series the
// component belongs to.
func splitLE(labels map[string]string) (le *string, sig string) {
	if v, ok := labels["le"]; ok {
		le = &v
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(0)
		b.WriteString(labels[k])
		b.WriteByte(0)
	}
	return le, b.String()
}

func cloneWithoutLE(labels map[string]string) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		if k != "le" {
			out[k] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// sealHistogram validates one assembled histogram: buckets sorted and
// cumulative, +Inf present and last, _count matching the +Inf bucket, and
// _sum present. A scrape torn mid-histogram fails here.
func sealHistogram(name string, b *histBuild) (*HistogramSample, error) {
	if len(b.buckets) == 0 {
		return nil, &ParseError{Line: 0, Msg: fmt.Sprintf("histogram %s has no buckets", name), err: ErrTruncated}
	}
	for i := 1; i < len(b.buckets); i++ {
		if !(b.buckets[i].Upper > b.buckets[i-1].Upper) {
			return nil, &ParseError{Line: 0, Msg: fmt.Sprintf("histogram %s buckets not increasing", name)}
		}
		if b.buckets[i].CumCount < b.buckets[i-1].CumCount {
			return nil, &ParseError{Line: 0, Msg: fmt.Sprintf("histogram %s bucket counts not cumulative", name)}
		}
	}
	last := b.buckets[len(b.buckets)-1]
	if !math.IsInf(last.Upper, 1) {
		return nil, &ParseError{Line: 0, Msg: fmt.Sprintf("histogram %s missing +Inf bucket", name), err: ErrTruncated}
	}
	if !b.hasCnt || !b.hasSum {
		return nil, &ParseError{Line: 0, Msg: fmt.Sprintf("histogram %s missing _sum/_count", name), err: ErrTruncated}
	}
	if b.count != last.CumCount {
		return nil, &ParseError{Line: 0, Msg: fmt.Sprintf("histogram %s _count %d != +Inf bucket %d", name, b.count, last.CumCount)}
	}
	return &HistogramSample{Labels: b.labels, Buckets: b.buckets, Sum: b.sum, Count: b.count}, nil
}

// splitSample tears one sample line into name, labels and value.
func splitSample(line string, lineNo int) (name string, labels map[string]string, value float64, err error) {
	i := 0
	for i < len(line) && isNameByte(line[i], i == 0) {
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", nil, 0, &ParseError{Line: lineNo, Msg: fmt.Sprintf("invalid sample name in %q", clip(line))}
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		var consumed int
		labels, consumed, err = parseLabels(rest, lineNo)
		if err != nil {
			return "", nil, 0, err
		}
		rest = rest[consumed:]
	}
	if !strings.HasPrefix(rest, " ") {
		return "", nil, 0, &ParseError{Line: lineNo, Msg: fmt.Sprintf("missing value separator in %q", clip(line))}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 {
		return "", nil, 0, &ParseError{Line: lineNo, Msg: fmt.Sprintf("want `value [timestamp]` in %q", clip(line))}
	}
	value, err = parseValue(fields[0])
	if err != nil {
		return "", nil, 0, &ParseError{Line: lineNo, Msg: fmt.Sprintf("bad value %q: %v", fields[0], err)}
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", nil, 0, &ParseError{Line: lineNo, Msg: fmt.Sprintf("bad timestamp %q", fields[1])}
		}
	}
	return name, labels, value, nil
}

// parseLabels consumes a {k="v",...} block and returns how many bytes it
// ate. Values are unescaped (\\, \", \n).
func parseLabels(s string, lineNo int) (map[string]string, int, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return nil, 0, &ParseError{Line: lineNo, Msg: "unterminated label block", err: ErrTruncated}
		}
		if s[i] == '}' {
			return labels, i + 1, nil
		}
		start := i
		for i < len(s) && isNameByte(s[i], i == start) {
			i++
		}
		key := s[start:i]
		if !validMetricName(key) {
			return nil, 0, &ParseError{Line: lineNo, Msg: fmt.Sprintf("invalid label name in %q", clip(s))}
		}
		if i+1 >= len(s) || s[i] != '=' || s[i+1] != '"' {
			return nil, 0, &ParseError{Line: lineNo, Msg: fmt.Sprintf("label %s missing =\"...\"", key)}
		}
		i += 2
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, 0, &ParseError{Line: lineNo, Msg: "unterminated label value", err: ErrTruncated}
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, 0, &ParseError{Line: lineNo, Msg: "dangling escape in label value", err: ErrTruncated}
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, 0, &ParseError{Line: lineNo, Msg: fmt.Sprintf("bad escape \\%c in label value", s[i+1])}
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[key]; dup {
			return nil, 0, &ParseError{Line: lineNo, Msg: fmt.Sprintf("duplicate label %s", key)}
		}
		labels[key] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// parseValue parses a sample value with the Prometheus spellings of the
// non-finite values.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func isNameByte(c byte, first bool) bool {
	alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
	return alpha || (!first && c >= '0' && c <= '9')
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameByte(s[i], i == 0) {
			return false
		}
	}
	return true
}

func unescapeHelp(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func clip(s string) string {
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}
