package schedinspector_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"schedinspector/internal/expt"
)

// docFiles are the documents whose file references, experiment names and
// metric names TestDocsReferences and TestDocsMetricNames hold to the tree.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	repoPath = regexp.MustCompile(`^(internal|cmd|docs|\.github|\.claude)/`)
	expFlag  = regexp.MustCompile(`expreport\b[^\n]*?\s-exp[ =]([a-z][a-z0-9,-]*)`)

	docMetric  = regexp.MustCompile(`schedinspector_[a-z0-9_]*`)
	codeMetric = regexp.MustCompile(`"(schedinspector_[a-z0-9_]*)`)
)

// TestDocsReferences: every backticked path under internal/, cmd/, docs/,
// .github/ or .claude/ in the documents exists (a :line suffix is
// dropped), and every experiment named after `expreport -exp` is one
// expreport runs. A deleted package or experiment the docs still point
// at fails here.
func TestDocsReferences(t *testing.T) {
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				tok := m[1]
				if !repoPath.MatchString(tok) {
					continue
				}
				path, _, _ := strings.Cut(tok, ":")
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s:%d: `%s` names %s, which does not exist", doc, i+1, tok, path)
				}
			}
			for _, m := range expFlag.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Split(m[1], ",") {
					if name == "" {
						continue
					}
					if _, err := expt.ByName(name); err != nil {
						t.Errorf("%s:%d: expreport -exp %s: %v", doc, i+1, name, err)
					}
				}
			}
		}
	}
}

// TestDocsMetricNames: every schedinspector_* metric name in the documents
// begins a string literal in a non-test Go file under internal/ or cmd/.
// A _bucket, _sum or _count suffix is dropped first, and a name ending in
// _ (schedinspector_online_*) only has to begin one. A renamed or deleted
// metric the docs still name fails here.
func TestDocsMetricNames(t *testing.T) {
	literals := map[string]bool{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			b, err := os.ReadFile(p)
			for _, m := range codeMetric.FindAllSubmatch(b, -1) {
				literals[string(m[1])] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	exported := func(name string) bool {
		if !strings.HasSuffix(name, "_") {
			return literals[name]
		}
		for lit := range literals {
			if strings.HasPrefix(lit, name) {
				return true
			}
		}
		return false
	}
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, name := range docMetric.FindAllString(line, -1) {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					name = strings.TrimSuffix(name, suffix)
				}
				if !exported(name) {
					t.Errorf("%s:%d: %s is not a metric any non-test file under internal/ or cmd/ names", doc, i+1, name)
				}
			}
		}
	}
}
