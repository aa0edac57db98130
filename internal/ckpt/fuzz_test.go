package ckpt

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzLoadCheckpoint throws arbitrary bytes at the container decoder: it
// must never panic, never return a payload that fails re-verification, and
// classify every rejection as corruption (a typed *CorruptError). Seeds
// cover the empty file, bare/typo'd magic, forged lengths and a valid
// container. Run with `go test -fuzz FuzzLoadCheckpoint ./internal/ckpt`
// (the CI fuzz-smoke job does); the seeds run in the normal test suite.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add([]byte("SCHDCKP\x02 wrong container version"))
	f.Add(bytes.Repeat([]byte{0xFF}, FrameHeaderSize))
	var valid bytes.Buffer
	if err := Encode(&valid, 3, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-1])
	truncatedHeader := append([]byte(nil), valid.Bytes()[:FrameHeaderSize-2]...)
	f.Add(truncatedHeader)

	f.Fuzz(func(t *testing.T, data []byte) {
		version, payload, err := decode(data, "")
		if err != nil {
			var ce *CorruptError
			if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) {
				t.Fatalf("rejection is not a typed corruption error: %v", err)
			}
			return
		}
		// Whatever decodes must re-encode to the same bytes and decode
		// again to the same payload.
		var buf bytes.Buffer
		if err := Encode(&buf, version, payload); err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted container is not canonical: %x vs %x", buf.Bytes(), data)
		}
		v2, p2, err := decode(buf.Bytes(), "")
		if err != nil || v2 != version || !bytes.Equal(p2, payload) {
			t.Fatalf("round trip diverged: v=%d err=%v", v2, err)
		}
	})
}
