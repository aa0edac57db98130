package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, 3*frameChunk+5) // read in growing chunks
	for i := range big {
		big[i] = byte(i * 7)
	}
	payloads := [][]byte{[]byte("first"), {}, []byte("third frame with more bytes"), big}
	for i, p := range payloads {
		if err := WriteFrame(&buf, uint32(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		version, got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if version != uint32(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: version=%d payload=%q, want version=%d payload=%q",
				i, version, got, i+1, p)
		}
	}
	// A cleanly exhausted stream reports io.EOF, not corruption.
	if _, _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("end of stream: err=%v, want io.EOF", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	frame := func() []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 1, []byte("payload bytes")); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"truncated header", func(b []byte) []byte { return b[:FrameHeaderSize-3] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-2] }},
		{"flipped payload bit", func(b []byte) []byte { b[FrameHeaderSize+4] ^= 0x01; return b }},
		{"flipped CRC", func(b []byte) []byte { b[20] ^= 0x10; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadFrame(bytes.NewReader(tc.mut(frame())), 0)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err=%v, want ErrCorrupt", err)
			}
		})
	}
}

func TestFrameLengthBound(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	// A tight bound rejects the frame before allocating its payload.
	if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 16); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err=%v, want ErrCorrupt for oversized frame", err)
	}
	// The exact size passes.
	if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 64); err != nil {
		t.Fatal(err)
	}
}

// TestFrameLengthNotBelieved: a header claiming a 64 MiB payload (the dist
// transport's bound) followed by 16 bytes and EOF is corruption, and costs
// far less than the claimed length in allocations.
func TestFrameLengthNotBelieved(t *testing.T) {
	const claim = 64 << 20
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint64(b[12:20], claim)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(b), claim)
	runtime.ReadMemStats(&after)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err=%v, want a *CorruptError", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("a 16-byte frame claiming %d bytes allocated %d bytes, want < 1 MiB", claim, alloc)
	}
}

// TestFrameInMemoryAllocs: a frame read from an in-memory reader that holds
// all of it costs as many allocations as a one-byte frame, however many
// chunks long it is: its payload is allocated once, at its size.
func TestFrameInMemoryAllocs(t *testing.T) {
	allocs := func(size int) float64 {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 1, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, big := allocs(1), allocs(3*frameChunk+5); small != big {
		t.Fatalf("ReadFrame allocates %.0f times for a 1-byte frame and %.0f for a %d-byte one",
			small, big, 3*frameChunk+5)
	}
}
