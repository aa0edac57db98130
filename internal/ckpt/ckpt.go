// Package ckpt implements the durable on-disk container every model and
// trainer checkpoint file is, and the canonical binary codec (Writer,
// Reader; codec.go) their payloads and internal/dist's frames are written
// in. The container is deliberately dumb about contents — the payload is
// an opaque byte slice whose schema the caller owns (internal/core) — and
// strict about durability:
//
//   - Writes are atomic. The container is written to a temporary file in
//     the destination directory, fsynced, renamed over the final path, and
//     the directory is fsynced. A crash at any point leaves either the old
//     file or the new one, never a hybrid.
//   - Reads are all-or-nothing. The container carries a magic string, a
//     format version, the payload length, and a CRC-32C of the payload; a
//     torn, truncated or bit-flipped file fails with a *CorruptError
//     (errors.Is ErrCorrupt) instead of yielding a partial payload.
//
// Layout (all integers big-endian):
//
//	offset  size  field
//	0       8     magic "SCHDCKP\x01"
//	8       4     payload version (caller-defined schema number)
//	12      8     payload length N
//	20      4     CRC-32C (Castagnoli) of the payload bytes
//	24      N     payload
//
// Checkpoint files in a directory are named ckpt-<seq>.ckpt with a
// zero-padded decimal sequence number (the trainer uses the epoch), so
// lexical order is chronological order. Latest scans newest-first and
// skips corrupt files, which is what makes a torn final checkpoint fall
// back to the previous good one on resume.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// magic identifies a checkpoint container. The trailing byte doubles as a
// container-layout version, separate from the caller's payload version.
var magic = [8]byte{'S', 'C', 'H', 'D', 'C', 'K', 'P', 1}

// FrameHeaderSize is the fixed prefix before the payload.
const FrameHeaderSize = 8 + 4 + 8 + 4

// MaxPayload caps how large a payload Read will believe. It exists so a
// corrupt length field cannot demand an absurd allocation; 1 GiB is orders
// of magnitude above any real trainer state.
const MaxPayload = 1 << 30

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel every corruption failure matches via
// errors.Is, whatever the specific reason (bad magic, short file, CRC
// mismatch, ...).
var ErrCorrupt = errors.New("corrupt data")

// CorruptError reports a container, frame or payload that failed
// validation: a checkpoint or model file, a dist frame or a .ftrace frame
// alike. It matches ErrCorrupt with errors.Is.
type CorruptError struct {
	Path   string // file path, "" for in-memory decodes
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("ckpt: corrupt data: %s", e.Reason)
	}
	return fmt.Sprintf("ckpt: corrupt file %s: %s", e.Path, e.Reason)
}

// Is reports whether target is ErrCorrupt.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

func corrupt(path, format string, args ...any) error {
	return &CorruptError{Path: path, Reason: fmt.Sprintf(format, args...)}
}

// putHeader writes the container header for payload into hdr, which holds
// at least FrameHeaderSize bytes.
func putHeader(hdr []byte, version uint32, payload []byte) {
	copy(hdr[:8], magic[:])
	binary.BigEndian.PutUint32(hdr[8:12], version)
	binary.BigEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[20:24], crc32.Checksum(payload, castagnoli))
}

// SealFrame fills the header of a frame built in place: frame holds
// FrameHeaderSize reserved bytes followed by the payload, and after the
// call it is one whole container, ready for a single Write. It is the
// allocation-free form of WriteFrame for a writer that owns its buffer.
func SealFrame(frame []byte, version uint32) {
	putHeader(frame, version, frame[FrameHeaderSize:])
}

// FrameVersion reports the payload version of a buffer that opens with a
// container header (ok is false for fewer than 12 bytes or another magic).
// It checks neither the length nor the CRC: it sniffs, it does not
// validate.
func FrameVersion(data []byte) (version uint32, ok bool) {
	if len(data) < 12 || [8]byte(data[:8]) != magic {
		return 0, false
	}
	return binary.BigEndian.Uint32(data[8:12]), true
}

// Encode writes one container (header + payload) to w.
func Encode(w io.Writer, version uint32, payload []byte) error {
	var hdr [FrameHeaderSize]byte
	putHeader(hdr[:], version, payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// decode validates data, read from path, as one container and returns its
// payload version and payload. The returned payload aliases data. Every
// validation failure is a *CorruptError.
func decode(data []byte, path string) (uint32, []byte, error) {
	if len(data) < FrameHeaderSize {
		return 0, nil, corrupt(path, "%d bytes, need at least the %d-byte header", len(data), FrameHeaderSize)
	}
	if [8]byte(data[:8]) != magic {
		return 0, nil, corrupt(path, "bad magic %q", data[:8])
	}
	version := binary.BigEndian.Uint32(data[8:12])
	n := binary.BigEndian.Uint64(data[12:20])
	if n > MaxPayload {
		return 0, nil, corrupt(path, "payload length %d exceeds limit %d", n, MaxPayload)
	}
	if uint64(len(data)-FrameHeaderSize) != n {
		return 0, nil, corrupt(path, "payload length %d, header promises %d (truncated or padded)",
			len(data)-FrameHeaderSize, n)
	}
	payload := data[FrameHeaderSize:]
	if sum := crc32.Checksum(payload, castagnoli); sum != binary.BigEndian.Uint32(data[20:24]) {
		return 0, nil, corrupt(path, "CRC mismatch (stored %08x, computed %08x)",
			binary.BigEndian.Uint32(data[20:24]), sum)
	}
	return version, payload, nil
}

// WriteFrame writes one container as a stream frame to w. The container
// layout doubles as a self-delimiting wire format — the header carries the
// payload length, so frames can be concatenated on a socket and read back
// with ReadFrame. internal/dist frames every peer message this way, which
// gives the wire the same magic + CRC-32C corruption detection as the
// on-disk checkpoints.
func WriteFrame(w io.Writer, version uint32, payload []byte) error {
	return Encode(w, version, payload)
}

// frameChunk is the payload buffer ReadFrame starts with: a frame up to
// this size costs one allocation.
const frameChunk = 256 << 10

// ReadFrame reads exactly one container frame from r and returns its
// payload version and payload. maxPayload bounds the payload length a
// frame header may declare (<= 0 means MaxPayload); a longer length field,
// bad magic or CRC mismatch yields a *CorruptError, while plain I/O failures
// (including a cleanly closed stream before any header byte, io.EOF) pass
// through. A stream truncated mid-frame surfaces as corruption, not EOF.
func ReadFrame(r io.Reader, maxPayload int) (version uint32, payload []byte, err error) {
	limit := uint64(MaxPayload)
	if maxPayload > 0 {
		limit = uint64(maxPayload)
	}
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF // clean end of stream between frames
		}
		return 0, nil, fmt.Errorf("ckpt: read frame header: %w", err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, corrupt("", "frame truncated in %d-byte header: %v", FrameHeaderSize, err)
	}
	if [8]byte(hdr[:8]) != magic {
		return 0, nil, corrupt("", "bad frame magic %q", hdr[:8])
	}
	version = binary.BigEndian.Uint32(hdr[8:12])
	n := binary.BigEndian.Uint64(hdr[12:20])
	if n > limit {
		return 0, nil, corrupt("", "frame payload length %d exceeds limit %d", n, limit)
	}
	// The length field is not believed before the bytes arrive: the buffer
	// starts at one chunk and doubles only once it is full, so a damaged
	// length costs at most one chunk or twice the bytes actually sent. An
	// in-memory reader (bytes.Reader, bytes.Buffer) reports the bytes it
	// holds, which have arrived: a frame they cover costs one allocation.
	chunk := uint64(frameChunk)
	if l, ok := r.(interface{ Len() int }); ok {
		chunk = max(chunk, uint64(l.Len()))
	}
	payload = make([]byte, min(n, chunk))
	for got := 0; ; {
		k, err := io.ReadFull(r, payload[got:])
		if got += k; err != nil {
			return 0, nil, corrupt("", "frame truncated at %d of %d payload bytes: %v", got, n, err)
		}
		if uint64(got) == n {
			break
		}
		payload = append(payload, make([]byte, min(n-uint64(got), uint64(got)))...)
	}
	if sum := crc32.Checksum(payload, castagnoli); sum != binary.BigEndian.Uint32(hdr[20:24]) {
		return 0, nil, corrupt("", "frame CRC mismatch (stored %08x, computed %08x)",
			binary.BigEndian.Uint32(hdr[20:24]), sum)
	}
	return version, payload, nil
}

// Write atomically replaces path with a container holding payload: the
// bytes land in a temporary file in the same directory, are fsynced,
// renamed over path, and the directory entry is fsynced. Concurrent
// writers to the same path are safe (last rename wins, each file whole).
func Write(path string, version uint32, payload []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = Encode(tmp, version, payload); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("ckpt: fsync %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	// Persist the rename itself. Directory fsync is advisory on some
	// platforms (and unsupported on others); failure to open the directory
	// is not a durability hole we can fix, so only real sync errors count.
	if d, derr := os.Open(dir); derr == nil {
		err = d.Sync()
		d.Close()
		if err != nil && !errors.Is(err, errors.ErrUnsupported) {
			return fmt.Errorf("ckpt: fsync dir %s: %w", dir, err)
		}
		err = nil
	}
	// A crash between CreateTemp and Rename strands a *.tmp* file nobody
	// will ever rename; List ignores them, so without a sweep they pile up
	// forever. Each successful save clears old strays. Best-effort — a
	// failed sweep never fails the save that just landed.
	sweepTemps(dir)
	return nil
}

// tempMaxAge is how old a *.tmp* file must be before sweepTemps considers
// it abandoned. Generous on purpose: a concurrent writer's in-flight temp
// file is seconds old, a crash leftover is from a previous run.
const tempMaxAge = time.Hour

// sweepTemps removes abandoned checkpoint temp files from dir: files whose
// name matches os.CreateTemp's <base>.tmp<digits> pattern and whose mtime
// is older than tempMaxAge. The age threshold is what makes it safe against
// concurrent Writes to the same directory.
func sweepTemps(dir string) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range des {
		if de.IsDir() || !isTempName(de.Name()) {
			continue
		}
		info, err := de.Info()
		if err != nil || time.Since(info.ModTime()) < tempMaxAge {
			continue
		}
		os.Remove(filepath.Join(dir, de.Name()))
	}
}

// isTempName reports whether name looks like a Write temp file:
// "<base>.tmp" followed by os.CreateTemp's random decimal suffix.
func isTempName(name string) bool {
	i := strings.LastIndex(name, ".tmp")
	if i <= 0 {
		return false
	}
	suffix := name[i+len(".tmp"):]
	if suffix == "" {
		return false
	}
	for _, r := range suffix {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// Read loads and validates the container at path. Corruption (including
// truncation) yields a *CorruptError; I/O failures pass through.
func Read(path string) (version uint32, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("ckpt: %w", err)
	}
	return decode(data, path)
}

// FileName returns the canonical checkpoint file name for a sequence
// number (the trainer passes the epoch): ckpt-00000042.ckpt.
func FileName(seq int) string {
	return fmt.Sprintf("ckpt-%08d.ckpt", seq)
}

// Entry is one checkpoint file found in a directory.
type Entry struct {
	Path string
	Seq  int
}

// List returns the checkpoint files in dir in ascending sequence order.
// Files not matching the ckpt-<seq>.ckpt pattern are ignored.
func List(dir string) ([]Entry, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var out []Entry
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".ckpt"))
		if err != nil {
			continue
		}
		out = append(out, Entry{Path: filepath.Join(dir, name), Seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// ErrNoCheckpoint reports a directory with no loadable checkpoint.
var ErrNoCheckpoint = errors.New("ckpt: no valid checkpoint found")

// Latest returns the newest checkpoint in dir that validates, scanning
// backwards past corrupt files (a torn final write must not strand the
// run). If every candidate is corrupt — or there are none — the error
// wraps ErrNoCheckpoint, with the per-file failures joined in.
func Latest(dir string) (Entry, uint32, []byte, error) {
	entries, err := List(dir)
	if err != nil {
		return Entry{}, 0, nil, err
	}
	var fails []error
	for i := len(entries) - 1; i >= 0; i-- {
		version, payload, err := Read(entries[i].Path)
		if err == nil {
			return entries[i], version, payload, nil
		}
		fails = append(fails, err)
	}
	return Entry{}, 0, nil, errors.Join(append([]error{fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)}, fails...)...)
}

// Prune deletes the oldest checkpoints in dir, keeping the newest keep
// files (keep <= 0 keeps everything). Deletion failures are reported but
// do not stop the sweep.
func Prune(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	entries, err := List(dir)
	if err != nil {
		return err
	}
	var errs []error
	for i := 0; i+keep < len(entries); i++ {
		if err := os.Remove(entries[i].Path); err != nil {
			errs = append(errs, fmt.Errorf("ckpt: prune: %w", err))
		}
	}
	return errors.Join(errs...)
}
