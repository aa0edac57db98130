// Package mutants is test support for decoder hardening against damaged
// input: it enumerates the damaged copies of an encoded image (every
// truncation and every single-bit flip) that a decoder must answer with a
// typed error or a usable value — never a panic or a hang.
// Its adopters are the /v1/inspect and /v1/simulate body decoders
// (internal/serve), the model/checkpoint payload decoder (internal/core),
// the .ftrace to JSONL converter (internal/explain) and the /metrics
// exposition parser (internal/fleet).
package mutants

// Each calls f with every prefix of data, empty and whole included, and
// then with every single-bit flip of it. Prefixes alias data; each flip is
// a fresh copy.
func Each(data []byte, f func([]byte)) {
	for n := 0; n <= len(data); n++ {
		f(data[:n])
	}
	for i := 0; i < 8*len(data); i++ {
		m := append([]byte(nil), data...)
		m[i/8] ^= 1 << (i % 8)
		f(m)
	}
}
