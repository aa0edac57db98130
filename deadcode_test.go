package schedinspector_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// uncalledAllowed are the functions under internal/ and cmd/ whose names
// no non-test file uses, each with the reason it stays. An entry goes when
// its function is deleted or gains a caller; TestNoUncalledFunctions fails
// on an entry that no longer names an uncalled function.
var uncalledAllowed = map[string]string{
	"dist.PeerError.Unwrap":     "errors.Is and errors.As call it through the error interface",
	"fleet.ParseError.Unwrap":   "errors.Is and errors.As call it through the error interface",
	"serve.statusWriter.Unwrap": "http.ResponseController calls it to reach the connection's writer",
	"mutants.Each":              "test support by design: the codec tests' every-prefix, every-bit-flip sweep",

	"nn.MLP.Backward":         "the per-step gradient oracle of rl's equivalence tests, which cannot see nn's test files",
	"nn.NewGrads":             "the per-step gradient oracle of rl's equivalence tests, which cannot see nn's test files",
	"nn.LogSumExp":            "only nn's tests call it; to move into them",
	"nn.Grads.Zero":           "only nn's tests call it; to move into them",
	"rl.PPO.Update":           "core's legacy-equivalence test compares the sharded update against it",
	"rl.Agent.Reseed":         "core's legacy-equivalence test reseeds its reference agent with it",
	"rl.Agent.StateValue":     "only rl's tests call it; to move into them",
	"core.Inspector.Save":     "only core's tests call it; to move into them",
	"core.Inspector.Sampling": "only core's tests call it; to move into them",
	"core.LoadInspector":      "only core's tests call it; to move into them",
	"fleet.Scrape.WriteTo":    "ParseProm's round-trip test renders with it; to move into fleet's tests",
	"obs.TraceRing.Dropped":   "ring-health assertions in several packages' tests; production reads Flush and the ring's metrics",
	"obs.TraceRing.SinkErr":   "ring-health assertions in several packages' tests; production reads Flush and the ring's metrics",
	"sched.Names":             "drives the sim tests' loops over every policy",
}

// TestNoUncalledFunctions: every function and method declared in a
// non-test file under internal/ or cmd/ has its name used as an identifier
// in some non-test file of the module (bench/ and the root facade count as
// users; the facade's own declarations are the public API and are not
// checked). Code that only tests call fails here unless uncalledAllowed
// says why it stays. The check is by name, not by type, so it misses a dead
// function that shares its name with a live one.
func TestNoUncalledFunctions(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[string]string{} // dir.[Recv.]Name → position
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		top, _, _ := strings.Cut(filepath.ToSlash(path), "/")
		names := map[*ast.Ident]bool{} // declaring identifiers are not uses
		for _, dcl := range f.Decls {
			fn, ok := dcl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fn.Name] = true
			if top != "internal" && top != "cmd" || fn.Name.Name == "main" || fn.Name.Name == "init" {
				continue
			}
			declared[filepath.Base(filepath.Dir(path))+"."+recvPrefix(fn)+fn.Name.Name] = fset.Position(fn.Pos()).String()
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, pos := range declared {
		_, allowed := uncalledAllowed[name]
		switch uncalled := !used[name[strings.LastIndex(name, ".")+1:]]; {
		case uncalled && !allowed:
			t.Errorf("%s (%s): no non-test file uses it; delete it, or move it into the tests that call it", name, pos)
		case !uncalled && allowed:
			t.Errorf("uncalledAllowed[%q]: it has a caller now; drop the entry", name)
		}
	}
	for name := range uncalledAllowed {
		if _, ok := declared[name]; !ok {
			t.Errorf("uncalledAllowed[%q]: no such function; drop the entry", name)
		}
	}
}

// recvPrefix is "Recv." for a method (type parameters dropped), "" for a
// function.
func recvPrefix(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch generic := typ.(type) {
	case *ast.IndexExpr:
		typ = generic.X
	case *ast.IndexListExpr:
		typ = generic.X
	}
	return typ.(*ast.Ident).Name + "."
}
