// Package obs is the observability substrate of the repository: a
// dependency-free metrics registry that renders the Prometheus text
// exposition format (counters, gauges, histograms with lock-free hot
// paths), and a structured event tracer for the cluster simulator with a
// bounded ring buffer and an optional JSONL sink.
//
// Everything here is standard library only, mirroring the rest of the
// module. The registry backs the /metrics endpoint of cmd/inspectord; the
// tracer plugs into sim.Config and costs a single nil check per event site
// when disabled.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Labels is a set of constant label pairs attached to a metric at
// registration time. Label values may contain any UTF-8; they are escaped
// at exposition time.
type Labels map[string]string

// renderLabels pre-renders a deterministic `{k="v",...}` suffix (empty
// string for no labels). Label names are validated; values escaped.
func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		if !validName(k) {
			panic(fmt.Sprintf("obs: invalid label name %q", k))
		}
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
		b.WriteString(escapeLabelValue(ls[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text format:
// backslash, double quote and line feed.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and line feed only.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// validName reports whether s is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]* (colons are reserved for recording rules but
// legal in the grammar; we accept them).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// appendValue appends a sample value the way Prometheus clients render
// it: shortest round-trip decimal, with +Inf/-Inf/NaN spelled out.
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
