package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// RotatingWriter is inspectord's -flight file: an obs.RotatingSink that
// keeps one previous generation. Opening it moves a file already at path to
// path+".1", so a restart keeps the last run's record; Rotate does the same
// once the current file holds maxBytes. At most two generations therefore
// exist on disk. The trace ring calls Write and Rotate under its own lock,
// and Rotate only between frames, so every file opens with its own
// headers and decodes alone.
type RotatingWriter struct {
	path     string
	maxBytes int64
	f        *os.File
	size     int64
}

// NewRotatingWriter moves any file at path to path+".1" and opens a fresh
// one. maxBytes <= 0 never rotates: the file grows unbounded.
func NewRotatingWriter(path string, maxBytes int64) (*RotatingWriter, error) {
	w := &RotatingWriter{path: path, maxBytes: maxBytes}
	if err := w.open(); err != nil {
		return nil, err
	}
	return w, nil
}

// open moves the file at path, if there is one, to path+".1" (replacing the
// previous generation) and creates an empty file at path.
func (w *RotatingWriter) open() error {
	if err := os.Rename(w.path, w.path+".1"); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("serve: rotating file: %w", err)
	}
	f, err := os.Create(w.path)
	if err != nil {
		return fmt.Errorf("serve: rotating file: %w", err)
	}
	w.f, w.size = f, 0
	return nil
}

// Write appends p to the current file. A write never rotates, so one
// larger than maxBytes lands whole.
func (w *RotatingWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.size += int64(n)
	return n, err
}

// Rotate starts a new generation once the current file holds maxBytes and
// reports whether it did.
func (w *RotatingWriter) Rotate() (bool, error) {
	if w.maxBytes <= 0 || w.size < w.maxBytes {
		return false, nil
	}
	err := w.f.Close()
	w.f = nil // a nil *os.File fails every write
	if err != nil {
		return false, fmt.Errorf("serve: rotating file: %w", err)
	}
	return true, w.open()
}

// Close closes the current file; later writes fail.
func (w *RotatingWriter) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
