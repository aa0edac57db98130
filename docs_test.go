package schedinspector_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"schedinspector/internal/expt"
)

// docFiles are the documents whose file references and experiment names
// TestDocsReferences holds to the tree.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	repoPath = regexp.MustCompile(`^(internal|cmd|docs|\.github|\.claude)/`)
	expFlag  = regexp.MustCompile(`expreport\b[^\n]*?\s-exp[ =]([a-z][a-z0-9,-]*)`)
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
