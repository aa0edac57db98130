package schedinspector_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFuzzSmokeListsEveryTarget: every fuzz target of the module has a
// line in the Makefile's fuzz-smoke target, run in its own package, and
// every line there names a target that exists. CI's fuzz job runs
// make fuzz-smoke, so a target missing from the list is never fuzzed.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz-smoke target")
	}
	if end := strings.Index(recipe, "\n\n"); end >= 0 {
		recipe = recipe[:end]
	}
	listed := map[string]bool{} // "Target ./dir/"
	line := regexp.MustCompile(`-fuzz '\^(Fuzz\w+)\$\$' .* (\./\S+/)$`)
	for _, l := range strings.Split(recipe, "\n") {
		if m := line.FindStringSubmatch(l); m != nil {
			listed[m[1]+" "+m[2]] = true
		}
	}

	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(f \*testing\.F\)`)
	found := map[string]bool{}
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			key := m[1] + " ./" + filepath.ToSlash(filepath.Dir(p)) + "/"
			found[key] = true
			if !listed[key] {
				t.Errorf("%s (%s) is not in the Makefile's fuzz-smoke target", m[1], p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range listed {
		if !found[key] {
			t.Errorf("fuzz-smoke runs %s, which no test file declares", key)
		}
	}
	if len(found) == 0 {
		t.Error("no fuzz target found; the declaration pattern is stale")
	}
}
