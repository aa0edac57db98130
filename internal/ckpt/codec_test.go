package ckpt

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	w := Writer{Buf: []byte{0xee}} // appends after a preset prefix
	w.U8(7)
	w.U32(0xdeadbeef)
	w.U64(1<<63 | 5)
	w.F64(math.Copysign(0, -1))
	w.Bool(true)
	w.Bool(false)
	w.F64s([]float64{1.5, math.Inf(-1)})
	w.F64s(nil)
	want := []byte{0xee, 7, 0xde, 0xad, 0xbe, 0xef, 0x80, 0, 0, 0, 0, 0, 0, 5,
		0x80, 0, 0, 0, 0, 0, 0, 0, 1, 0,
		0, 0, 0, 2, 0x3f, 0xf8, 0, 0, 0, 0, 0, 0, 0xff, 0xf0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0}
	if !bytes.Equal(w.Buf, want) {
		t.Fatalf("encoding\n%x, want\n%x", w.Buf, want)
	}

	r := NewReader(w.Buf[1:])
	if r.U8() != 7 || r.U32() != 0xdeadbeef || r.U64() != 1<<63|5 ||
		math.Float64bits(r.F64()) != 1<<63 || !r.Bool() || r.Bool() {
		t.Fatal("scalars did not round-trip")
	}
	if s := r.F64s(); len(s) != 2 || s[0] != 1.5 || !math.IsInf(s[1], -1) {
		t.Fatalf("F64s = %v", s)
	}
	if s := r.F64s(); s == nil || len(s) != 0 {
		t.Fatalf("empty F64s = %#v, want empty non-nil", s)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRefuses: every failure is a *CorruptError, the first one
// sticks, and a count the remaining bytes cannot back allocates nothing.
func TestReaderRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		read func(*Reader)
	}{
		{"truncated", []byte{1, 2, 3}, func(r *Reader) { r.U32() }},
		{"trailing", []byte{1, 2}, func(r *Reader) { r.U8() }},
		{"bool byte", []byte{2}, func(r *Reader) { r.Bool() }},
		{"forged count", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) {
			if s := r.F64s(); s != nil {
				t.Errorf("forged count yielded %d values", len(s))
			}
		}},
		{"sticky", []byte{1}, func(r *Reader) {
			r.Fail("first")
			r.U64()
			if r.U8() != 0 {
				t.Error("read after a failure returned data")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.data)
			tc.read(&r)
			var ce *CorruptError
			if err := r.Done(); !errors.As(err, &ce) {
				t.Fatalf("err=%v, want *CorruptError", err)
			}
			if tc.name == "sticky" && ce.Reason != "first" {
				t.Errorf("reason %q, want the first failure", ce.Reason)
			}
		})
	}
}
