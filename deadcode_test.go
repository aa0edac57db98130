package schedinspector_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// uncalledAllowed are the functions, methods and types under internal/ and
// cmd/ that no non-test file uses, and the fields of internal/ *Config
// structs that no non-test file sets, each with the reason it stays. An
// entry goes when its declaration is deleted or gains a user;
// TestNoUncalledFunctions fails on an entry that no longer names an unused
// declaration.
var uncalledAllowed = map[string]string{
	"serve.statusWriter.Unwrap": "http.ResponseController calls it to reach the connection's writer",
	"mutants.Each":              "test support by design: the codec tests' every-prefix, every-bit-flip sweep",

	"nn.MLP.Backward":       "the per-step gradient oracle of rl's equivalence tests, which cannot see nn's test files",
	"nn.NewGrads":           "the per-step gradient oracle of rl's equivalence tests, which cannot see nn's test files",
	"rl.PPO.Update":         "core's legacy-equivalence test compares the sharded update against it",
	"rl.Agent.Reseed":       "core's legacy-equivalence test reseeds its reference agent with it",
	"fleet.Scrape.WriteTo":  "ParseProm's round-trip oracle, rendering through obs's own exposition appenders; the parser and fuzz tests compare against it",
	"obs.TraceRing.Dropped": "ring-health assertions in several packages' tests; production reads Flush and the ring's metrics",
	"obs.TraceRing.SinkErr": "ring-health assertions in several packages' tests; production reads Flush and the ring's metrics",
	"obs.TraceRing.Total":   "ring-health assertions in several packages' tests; production reads Flush and the ring's metrics",
	"sched.Names":           "drives the sim tests' loops over every policy",
	"sim.Env.Snapshot":      "ROADMAP's hindsight-headroom oracle is to branch the simulator with it; FuzzEnvStep replays through it",
	"sim.Env.Restore":       "ROADMAP's hindsight-headroom oracle is to branch the simulator with it; FuzzEnvStep replays through it",

	"core.EvalConfig.Greedy":  "the paper's argmax inference option, set through the facade's EvalConfig alias",
	"core.TrainConfig.Hidden": "the network shape, set through the facade's TrainConfig alias; unset means the paper's 32-16-8",
	"sim.Config.OnEvent":      "the facade's SimConfig event hook (ExampleSimulate); ROADMAP item 18 decides whether it stays",
}

// TestNoUncalledFunctions: every function, method and type declared in a
// non-test file under internal/ or cmd/ is used by some non-test file of
// the module (bench/ and the root facade count as users; the facade's own
// declarations are the public API and are not checked). Uses are resolved
// by go/types, so a dead method is found even when a live identifier shares
// its name. A method also counts as used when its receiver implements, by
// types.Implements, an interface that has it: any interface the module's
// code mentions, plus error, fmt.Stringer and the errors package's Unwrap
// and Is. A type's uses as its own methods' receiver do not count. Struct
// fields are checked only in the exported *Config structs under internal/,
// and there for being set, not read: every field must be set by some
// non-test file (a composite-literal key, an assignment or inc/dec, or the
// operand of &); encoding/json reads other tagged fields by reflection.
// Code that only tests use, and a Config field only tests set, fails here
// unless uncalledAllowed says why it stays.
func TestNoUncalledFunctions(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	std := map[string]bool{}          // the standard packages they import
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("schedinspector", filepath.ToSlash(filepath.Dir(p)))
		files[pkg] = append(files[pkg], f)
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); !strings.HasPrefix(p, "schedinspector") {
				std[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One go list finds every standard package's export data; the default
	// importer runs one per package, which costs seconds.
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for p := range std {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, file, _ := strings.Cut(line, "=")
		exports[p] = file
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) { return os.Open(exports[p]) })

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	// The module's packages are type-checked from source on first import,
	// each recording its uses into info.
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(pkg string) (*types.Package, error) {
		if p, ok := checked[pkg]; ok {
			return p, nil
		}
		if _, ok := files[pkg]; !ok {
			return stdImporter.Import(pkg)
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(pkg, fset, files[pkg], info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", pkg, err)
		}
		checked[pkg] = p
		return p, nil
	}
	for pkg := range files {
		if _, err := imp(pkg); err != nil {
			t.Fatal(err)
		}
	}

	declared := map[types.Object]string{} // internal/ and cmd/ declarations → key
	receivers := map[*ast.Ident]bool{}    // a type's uses as its own methods' receiver
	for pkg, fs := range files {
		dir := strings.TrimPrefix(pkg, "schedinspector/")
		if !strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "cmd/") {
			continue
		}
		for _, f := range fs {
			for _, dcl := range f.Decls {
				switch dcl := dcl.(type) {
				case *ast.FuncDecl:
					name := dcl.Name.Name
					if dcl.Recv != nil {
						recv := recvIdent(dcl)
						receivers[recv] = true
						name = recv.Name + "." + name
					} else if name == "main" || name == "init" {
						continue
					}
					declared[info.Defs[dcl.Name]] = path.Base(dir) + "." + name
				case *ast.GenDecl:
					for _, spec := range dcl.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							declared[info.Defs[ts.Name]] = path.Base(dir) + "." + ts.Name.Name
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	mention := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, expr := range []string{"error", "interface{ String() string }", "interface{ Unwrap() error }", "interface{ Is(error) bool }"} {
		tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, expr)
		if err != nil {
			t.Fatal(err)
		}
		mention(tv.Type)
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if !receivers[id] {
			used[obj] = true
		}
		if sig, ok := obj.Type().(*types.Signature); ok {
			for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					mention(tuple.At(i).Type())
				}
			}
		}
	}
	for _, tv := range info.Types {
		mention(tv.Type)
	}
	for obj := range declared {
		fn, ok := obj.(*types.Func)
		if !ok || used[obj] {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		ptr := recv.Type()
		if _, isPtr := ptr.(*types.Pointer); !isPtr {
			ptr = types.NewPointer(ptr)
		}
		for it := range ifaces {
			if m, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); m != nil && types.Implements(ptr, it) {
				used[obj] = true
				break
			}
		}
	}

	// A field of an exported *Config struct under internal/ is live when a
	// non-test file sets it: as a composite-literal key, on the left of an
	// assignment or inc/dec, or as the operand of & (a flag.Var target).
	set := map[types.Object]bool{}
	setBy := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			set[info.Uses[sel.Sel]] = true
		}
	}
	for _, fs := range files {
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						set[info.Uses[id]] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						setBy(lhs)
					}
				case *ast.IncDecStmt:
					setBy(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setBy(n.X)
					}
				}
				return true
			})
		}
	}

	keys := map[string]bool{}
	for obj, name := range declared {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.Exported() || !strings.HasSuffix(tn.Name(), "Config") || !strings.HasPrefix(tn.Pkg().Path(), "schedinspector/internal/") {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			field := name + "." + st.Field(i).Name()
			keys[field] = true
			_, allowed := uncalledAllowed[field]
			switch {
			case !set[st.Field(i)] && !allowed:
				t.Errorf("%s (%s): no non-test file sets it; delete it, or allow it with the reason it stays", field, fset.Position(st.Field(i).Pos()))
			case set[st.Field(i)] && allowed:
				t.Errorf("uncalledAllowed[%q]: a non-test file sets it now; drop the entry", field)
			}
		}
	}
	for obj, name := range declared {
		keys[name] = true
		_, allowed := uncalledAllowed[name]
		switch {
		case !used[obj] && !allowed:
			t.Errorf("%s (%s): no non-test file uses it; delete it, or move it into the tests that use it", name, fset.Position(obj.Pos()))
		case used[obj] && allowed:
			t.Errorf("uncalledAllowed[%q]: it has a user now; drop the entry", name)
		}
	}
	for name := range uncalledAllowed {
		if !keys[name] {
			t.Errorf("uncalledAllowed[%q]: no such declaration; drop the entry", name)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvIdent is the identifier naming a method's receiver type, with any
// pointer and type parameters dropped.
func recvIdent(fn *ast.FuncDecl) *ast.Ident {
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
	return typ.(*ast.Ident)
}
