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
		{"forged string length", []byte{0, 0, 0, 5, 'a', 'b'}, func(r *Reader) {
			if s := r.Bytes(); s != nil {
				t.Errorf("forged length yielded %q", s)
			}
		}},
		{"forged count into", []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) {
			if s := r.F64sInto(make([]float64, 4)); s != nil {
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

// TestCodecStrings pins the count-prefixed string (the dist fingerprint's
// policy name and every .ftrace string are written with it) and the
// float-slice read into a caller's array.
func TestCodecStrings(t *testing.T) {
	var w Writer
	w.Str("SJF")
	w.Str("")
	w.F64s([]float64{2, 3})
	w.F64s(nil)
	w.F64s([]float64{4, 5, 6})
	want := []byte{0, 0, 0, 3, 'S', 'J', 'F', 0, 0, 0, 0,
		0, 0, 0, 2, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x40, 0x08, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0,
		0, 0, 0, 3, 0x40, 0x10, 0, 0, 0, 0, 0, 0, 0x40, 0x14, 0, 0, 0, 0, 0, 0, 0x40, 0x18, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(w.Buf, want) {
		t.Fatalf("encoding\n%x, want\n%x", w.Buf, want)
	}

	r := NewReader(w.Buf)
	if s := r.Str(); s != "SJF" {
		t.Fatalf("Str = %q", s)
	}
	if b := r.Bytes(); b == nil || len(b) != 0 {
		t.Fatalf("empty Bytes = %#v, want empty non-nil", b)
	}
	dst := make([]float64, 2)
	if s := r.F64sInto(dst); len(s) != 2 || &s[0] != &dst[0] || s[0] != 2 || s[1] != 3 {
		t.Fatalf("F64sInto = %v, want [2 3] in dst's array", s)
	}
	if s := r.F64sInto(dst); s != nil {
		t.Fatalf("zero count = %#v, want nil", s)
	}
	if s := r.F64sInto(dst); len(s) != 3 || &s[0] == &dst[0] || s[2] != 6 {
		t.Fatalf("F64sInto past dst's capacity = %v, want a fresh [4 5 6]", s)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}
