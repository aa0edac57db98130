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

// TestOneBinaryCodec: internal/ckpt is the only package that imports
// encoding/binary outside tests. Model files, checkpoints, dist frames and
// .ftrace records all encode through ckpt.Writer and ckpt.Reader, so the
// byte order and the container layout are known in one place; a second
// hand-rolled codec fails here.
func TestOneBinaryCodec(t *testing.T) {
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			filepath.Dir(path) == filepath.Join("internal", "ckpt") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/binary" {
				t.Errorf("%s imports encoding/binary; encode through internal/ckpt's Writer and Reader", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
