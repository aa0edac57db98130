package schedinspector_test

import (
	"go/ast"
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

// TestOneTrainingRecord: a training run's per-epoch statistics have one
// durable form, the flight trace's epoch span (see core.EpochStatsFromSpans).
// No non-test file imports encoding/csv, and core's non-test files do not
// import encoding/json, so a second telemetry file format fails here.
func TestOneTrainingRecord(t *testing.T) {
	coreDir := filepath.Join("internal", "core")
	eachImport(t, func(path, imp string) {
		switch {
		case imp == "encoding/csv":
			t.Errorf("%s imports encoding/csv; per-epoch statistics are recorded as the flight trace's epoch span", path)
		case imp == "encoding/json" && filepath.Dir(path) == coreDir:
			t.Errorf("%s imports encoding/json; per-epoch statistics are recorded as the flight trace's epoch span", path)
		}
	})
}

// TestOneTrainingPath: internal/expt trains through one memoized path.
// Every experiment names a trainSpec and calls Options.train (or evaluate);
// the single reference to core.NewTrainer is trainUncached's, in expt.go. A
// sweep that builds its own trainer skips the memo and -v's epoch lines, and
// fails here.
func TestOneTrainingPath(t *testing.T) {
	dir := filepath.Join("internal", "expt")
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	refs := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		core := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "schedinspector/internal/core" {
				core = "core"
				if imp.Name != nil {
					core = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "NewTrainer" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && core != "" && x.Name == core {
				refs++
				if filepath.Base(path) != "expt.go" {
					t.Errorf("%s calls core.NewTrainer; train through Options.train", fset.Position(sel.Pos()))
				}
			}
			return true
		})
	}
	if refs != 1 {
		t.Errorf("internal/expt references core.NewTrainer %d times, want 1 (trainUncached)", refs)
	}
}
