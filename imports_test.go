package schedinspector_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// eachImport calls check with the path of every non-test Go file of the
// module (relative to its root) and each package that file imports.
func eachImport(t *testing.T, check func(path, imp string)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			check(path, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneBinaryCodec: internal/ckpt is the only package that imports
// encoding/binary outside tests. Model files, checkpoints, dist frames and
// .ftrace records all encode through ckpt.Writer and ckpt.Reader, so the
// byte order and the container layout are known in one place; a second
// hand-rolled codec fails here.
func TestOneBinaryCodec(t *testing.T) {
	eachImport(t, func(path, imp string) {
		if imp == "encoding/binary" && filepath.Dir(path) != filepath.Join("internal", "ckpt") {
			t.Errorf("%s imports encoding/binary; encode through internal/ckpt's Writer and Reader", path)
		}
	})
}

// TestOneJSONLWriter: internal/obs writes JSONL in one place. Only its
// jsonl.go imports encoding/json (for the error type a NaN line fails
// with); every other JSONL line obs writes goes through those appenders.
// And the simulator does not import obs at all: it reports events through
// sim.Config.OnEvent, and the flight record is written by its callers.
func TestOneJSONLWriter(t *testing.T) {
	obsDir, simDir := filepath.Join("internal", "obs"), filepath.Join("internal", "sim")
	eachImport(t, func(path, imp string) {
		switch dir := filepath.Dir(path); {
		case dir == obsDir && imp == "encoding/json" && filepath.Base(path) != "jsonl.go":
			t.Errorf("%s imports encoding/json; render JSONL through obs's appenders in jsonl.go", path)
		case dir == simDir && imp == "schedinspector/internal/obs":
			t.Errorf("%s imports internal/obs; the simulator reports through Config.OnEvent", path)
		}
	})
}
