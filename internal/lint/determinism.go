package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// deterministicPlanes lists the packages (by import-path suffix) whose
// executions must be bit-identical across engines, widths, chunk sizes
// and worker counts. Everything the golden and differential tests pin flows
// through these packages, so a nondeterminism source here is a
// reproducibility bug even when today's tests happen not to catch it.
var deterministicPlanes = []string{
	"internal/radio",
	"internal/broadcast",
	"internal/sim",
	"internal/stats",
	"internal/rng",
	"internal/bitset",
}

// simDispatcher is the one function of internal/sim that legitimately
// spawns goroutines: (*Sweep).RunContext, the worker pool and row
// admission whose chunk-ordered folding is exactly the mechanism that
// makes concurrency invisible in the output. A goroutine anywhere else in
// a deterministic plane needs a //lint:deterministic-ok reason.
const simDispatcher = "RunContext"

// forbiddenTimeFuncs are the wall-clock and timer entry points of package
// time that have no place in a deterministic simulation plane.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "NewTicker": true, "NewTimer": true,
	"After": true, "AfterFunc": true,
}

// DeterminismAnalyzer forbids nondeterminism sources in the deterministic
// planes: wall-clock reads, math/rand, map-range iteration (order is
// randomized per run), goroutine spawns outside the sim dispatcher,
// floating-point reductions folded in map-range order (reassociation
// changes the result), and package-level variables holding a map or a
// sync or sync/atomic value — process-wide mutable state such as a
// global cache or pool, which outlives the trials that fill it and is
// shared by every execution in the process. //lint:deterministic-ok
// <reason> silences one finding.
var DeterminismAnalyzer = &Analyzer{
	Name: "deterministic",
	Doc: "forbid nondeterminism sources (time.Now, math/rand, map ranges, stray goroutines,\n" +
		"unordered float reductions) and package-level maps, sync and sync/atomic values\n" +
		"in the deterministic simulation planes",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	plane := false
	for _, s := range deterministicPlanes {
		if pathHasSuffix(pass.Pkg.Path(), s) {
			plane = true
			break
		}
	}
	if !plane {
		return nil
	}
	isSim := pathHasSuffix(pass.Pkg.Path(), "internal/sim")
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		checkImports(pass, f)
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Body != nil {
					checkFuncDeterminism(pass, decl, isSim && decl.Name.Name == simDispatcher)
				}
			case *ast.GenDecl:
				if decl.Tok == token.VAR {
					checkPackageState(pass, decl)
				}
			}
		}
	}
	return nil
}

// checkImports reports imports of the math/rand packages; the simulator's
// only randomness source is internal/rng's explicit streams.
func checkImports(pass *Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(imp.Pos(),
				"deterministic plane imports %s; derive randomness from an internal/rng stream", path)
		}
	}
}

// checkPackageState reports each package-level variable of decl whose
// type is, or contains, a map or a sync or sync/atomic value.
func checkPackageState(pass *Pass, decl *ast.GenDecl) {
	for _, spec := range decl.Specs {
		for _, name := range spec.(*ast.ValueSpec).Names {
			v, ok := pass.Info.Defs[name].(*types.Var)
			if !ok || name.Name == "_" {
				continue
			}
			if what := mutableState(v.Type(), map[*types.Named]bool{}); what != "" {
				pass.Reportf(name.Pos(),
					"package-level variable %s holds %s in a deterministic plane: process-wide mutable state outlives and crosses trials; give it an owner or annotate with //lint:deterministic-ok <reason>", name.Name, what)
			}
		}
	}
}

// mutableState names the map, sync or sync/atomic type that t is or
// contains through pointers, slices, arrays and struct fields, or returns
// "" when it holds none. seen breaks cycles through recursive named types.
func mutableState(t types.Type, seen map[*types.Named]bool) string {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if p := t.Obj().Pkg(); p != nil && (p.Path() == "sync" || p.Path() == "sync/atomic") {
			return p.Name() + "." + t.Obj().Name()
		}
		if seen[t] {
			return ""
		}
		seen[t] = true
		return mutableState(t.Underlying(), seen)
	case *types.Map:
		return "a map"
	case *types.Pointer:
		return mutableState(t.Elem(), seen)
	case *types.Slice:
		return mutableState(t.Elem(), seen)
	case *types.Array:
		return mutableState(t.Elem(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if what := mutableState(t.Field(i).Type(), seen); what != "" {
				return what
			}
		}
	}
	return ""
}

func checkFuncDeterminism(pass *Pass, fn *ast.FuncDecl, dispatcher bool) {
	// mapRanges tracks the enclosing map-range nesting while walking, for
	// the float-reduction check.
	mapRangeDepth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"map range iteration in a deterministic plane: order is randomized per run; iterate a sorted key slice or annotate with //lint:deterministic-ok <reason>")
					mapRangeDepth++
					for _, sub := range []ast.Node{n.Key, n.Value, n.X, n.Body} {
						if sub != nil {
							ast.Inspect(sub, walk)
						}
					}
					mapRangeDepth--
					return false
				}
			}
		case *ast.GoStmt:
			if !dispatcher {
				pass.Reportf(n.Pos(),
					"goroutine spawned outside the sim dispatcher (sim.%s): concurrency in a deterministic plane must fold through sim's chunk-ordered dispatch", simDispatcher)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if obj, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok {
					if p := obj.Pkg(); p != nil && p.Path() == "time" && forbiddenTimeFuncs[obj.Name()] {
						pass.Reportf(n.Pos(),
							"time.%s in a deterministic plane: wall-clock reads make runs unreproducible", obj.Name())
					}
				}
			}
		case *ast.AssignStmt:
			if mapRangeDepth > 0 {
				checkFloatReduction(pass, n)
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

// checkFloatReduction reports compound floating-point accumulation inside
// a map-range body: the fold order follows the randomized iteration
// order, and float addition/multiplication do not reassociate.
func checkFloatReduction(pass *Pass, n *ast.AssignStmt) {
	switch n.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	for _, lhs := range n.Lhs {
		t := pass.Info.TypeOf(lhs)
		if t == nil {
			continue
		}
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			pass.Reportf(n.Pos(),
				"floating-point reduction folded in map-range order: the sum depends on randomized iteration order")
			return
		}
	}
}
