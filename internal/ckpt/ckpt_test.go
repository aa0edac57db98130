package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName(3))
	payload := []byte("the trainer state would go here")
	if err := Write(path, 7, payload); err != nil {
		t.Fatal(err)
	}
	version, got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if version != 7 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: version=%d payload=%q", version, got)
	}
	// No temp files may survive a successful write.
	des, _ := os.ReadDir(dir)
	for _, de := range des {
		if strings.Contains(de.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", de.Name())
		}
	}
}

func TestEmptyPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName(0))
	if err := Write(path, 1, nil); err != nil {
		t.Fatal(err)
	}
	version, payload, err := Read(path)
	if err != nil || version != 1 || len(payload) != 0 {
		t.Fatalf("empty payload: version=%d payload=%v err=%v", version, payload, err)
	}
}

// TestTornWrites truncates a valid container at every interesting offset
// and checks the loader reports corruption — never a partial payload.
func TestTornWrites(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, FileName(1))
	payload := bytes.Repeat([]byte("state"), 100)
	if err := Write(good, 2, payload); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int{0, 1, 7, 8, 11, 12, 19, 20, 23, 24, len(data) / 2, len(data) - 1}
	for _, off := range offsets {
		torn := filepath.Join(dir, "torn.ckpt")
		if err := os.WriteFile(torn, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Read(torn)
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes loaded successfully", off, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: error %v does not match ErrCorrupt", off, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("truncation at %d: error %T is not a *CorruptError", off, err)
		}
	}
}

// TestBitFlips corrupts single bytes across the container and checks each
// flip is caught (magic, version is CRC-free but length/CRC/payload are
// all covered).
func TestBitFlips(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, FileName(1))
	payload := bytes.Repeat([]byte{0xAB}, 512)
	if err := Write(good, 3, payload); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 5, 13, 19, 21, FrameHeaderSize, FrameHeaderSize + 100, len(data) - 1} {
		flipped := append([]byte(nil), data...)
		flipped[off] ^= 0x40
		bad := filepath.Join(dir, "flipped.ckpt")
		if err := os.WriteFile(bad, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Read(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at offset %d: err=%v, want ErrCorrupt", off, err)
		}
	}
	// A flip in the version field alone is not detectable (the version is
	// outside the CRC so schema evolution can read it first) — but the
	// payload must still verify.
	flipped := append([]byte(nil), data...)
	flipped[9] ^= 0x01
	bad := filepath.Join(dir, "version.ckpt")
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	version, got, err := Read(bad)
	if err != nil {
		t.Fatalf("version flip: %v", err)
	}
	if version == 3 || !bytes.Equal(got, payload) {
		t.Errorf("version flip: version=%d payload intact=%v", version, bytes.Equal(got, payload))
	}
}

func TestOversizedLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Forge a huge length field.
	for i := 12; i < 20; i++ {
		data[i] = 0xFF
	}
	if _, _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged length: err=%v, want ErrCorrupt", err)
	}
}

// TestLatestFallsBack pins the crash-safety property resume depends on:
// when the newest checkpoint is torn, Latest skips it and returns the
// previous good one.
func TestLatestFallsBack(t *testing.T) {
	dir := t.TempDir()
	for seq, body := range map[int]string{4: "epoch4", 9: "epoch9"} {
		if err := Write(filepath.Join(dir, FileName(seq)), 1, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	// Newest checkpoint: torn mid-payload.
	full := &bytes.Buffer{}
	if err := Encode(full, 1, []byte("epoch12, torn")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, FileName(12)), full.Bytes()[:full.Len()-4], 0o644); err != nil {
		t.Fatal(err)
	}

	e, version, payload, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 9 || version != 1 || string(payload) != "epoch9" {
		t.Fatalf("Latest = seq %d payload %q, want the previous good checkpoint (9)", e.Seq, payload)
	}

	// All corrupt -> ErrNoCheckpoint, with the per-file corruption joined.
	for _, de := range []int{4, 9} {
		good := filepath.Join(dir, FileName(de))
		if err := os.WriteFile(good, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, _, err = Latest(dir)
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("all-corrupt dir: err=%v, want ErrNoCheckpoint", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("all-corrupt dir: joined error should carry the corruption details: %v", err)
	}

	// Empty dir -> ErrNoCheckpoint too.
	if _, _, _, err := Latest(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: err=%v, want ErrNoCheckpoint", err)
	}
}

func TestListIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"model.ckpt", "ckpt-notanumber.ckpt", "ckpt-1.tmp123", "readme.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := Write(filepath.Join(dir, FileName(5)), 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	entries, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Seq != 5 {
		t.Fatalf("List = %+v, want just seq 5", entries)
	}
}

func TestPrune(t *testing.T) {
	dir := t.TempDir()
	for seq := 1; seq <= 6; seq++ {
		if err := Write(filepath.Join(dir, FileName(seq)), 1, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	entries, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Seq != 5 || entries[1].Seq != 6 {
		t.Fatalf("after prune: %+v, want seqs 5 and 6", entries)
	}
	// keep <= 0 is a no-op, not a wipe.
	if err := Prune(dir, 0); err != nil {
		t.Fatal(err)
	}
	if entries, _ = List(dir); len(entries) != 2 {
		t.Fatalf("Prune(0) deleted files: %+v", entries)
	}
}

func TestWriteReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName(1))
	if err := Write(path, 1, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, 2, []byte("new")); err != nil {
		t.Fatal(err)
	}
	version, payload, err := Read(path)
	if err != nil || version != 2 || string(payload) != "new" {
		t.Fatalf("overwrite: version=%d payload=%q err=%v", version, payload, err)
	}
}

// TestWriteSweepsStaleTemps: a crash between CreateTemp and Rename strands
// a *.tmp* file that List/Prune ignore; the next successful Write clears
// strays older than tempMaxAge while leaving fresh temps (a concurrent
// writer's in-flight file) and unrelated names alone.
func TestWriteSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, FileName(1)+".tmp123456789")
	fresh := filepath.Join(dir, FileName(2)+".tmp987654321")
	unrelated := filepath.Join(dir, "notes.tmpfile")
	for _, p := range []string{stale, fresh, unrelated} {
		if err := os.WriteFile(p, []byte("stranded"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-2 * tempMaxAge)
	for _, p := range []string{stale, unrelated} {
		if err := os.Chtimes(p, past, past); err != nil {
			t.Fatal(err)
		}
	}

	if err := Write(filepath.Join(dir, FileName(3)), 1, []byte("x")); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp %s survived the sweep (stat err=%v)", stale, err)
	}
	for _, p := range []string{fresh, unrelated} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s should have survived the sweep: %v", p, err)
		}
	}
}

func TestIsTempName(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"ckpt-00000001.ckpt.tmp123456789", true},
		{"model.ckpt.tmp42", true},
		{"ckpt-00000001.ckpt", false},
		{"notes.tmpfile", false},
		{"ckpt-00000001.ckpt.tmp", false}, // CreateTemp always appends digits
		{".tmp123", false},                // no base name
	}
	for _, tc := range cases {
		if got := isTempName(tc.name); got != tc.want {
			t.Errorf("isTempName(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
