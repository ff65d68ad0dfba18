package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolPairAnalyzer enforces the radio.Pool checkout discipline: a
// Get/GetBatch must be matched by a Put/PutBatch of the same kind,
// and a checkout must not leak through a return path between the Get and
// its Put. The analysis is flow-insensitive and per-function, with two
// deliberate outs that match the codebase's ownership idioms:
//
//   - A checkout that escapes the function — returned, stored into a
//     struct, or handed to another call — transfers ownership; the
//     receiving code is responsible for the Put (e.g. newSingleRunner
//     checks out, singleRunner.run puts back).
//   - A deferred Put covers every return path by construction.
//
// Cross-pairing is always wrong: a scalar Get put back with PutBatch (or
// vice versa) would file the network under the wrong kind's key, handing
// batch scratch to a scalar checkout later. //lint:poolpair-ok <reason>
// silences one finding.
var PoolPairAnalyzer = &Analyzer{
	Name: "poolpair",
	Doc: "require pool Get/GetBatch checkouts to be matched by Put/PutBatch of the same\n" +
		"kind (scalar or batch), with no unguarded return path between checkout and return",
	Run: runPoolPair,
}

// poolCall is one Get/GetBatch/Put/PutBatch call site.
type poolCall struct {
	call     *ast.CallExpr
	batch    bool // GetBatch/PutBatch
	variable types.Object
	errVars  []types.Object // error results bound alongside a Get
	deferred bool
	depth    int // nesting depth of enclosing func literals (0 = decl body)
}

func runPoolPair(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkPoolFunc(pass, fn)
		}
	}
	return nil
}

// poolMethod resolves a call to a radio.Pool method, returning its name
// ("" when the call is not a pool method).
func poolMethod(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	switch fn.Name() {
	case "Get", "GetBatch", "Put", "PutBatch":
	default:
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Name() != "Pool" || obj.Pkg() == nil || !pathHasSuffix(obj.Pkg().Path(), "internal/radio") {
		return ""
	}
	return fn.Name()
}

func checkPoolFunc(pass *Pass, fn *ast.FuncDecl) {
	var (
		gets    []poolCall
		puts    []poolCall
		returns []struct {
			pos   token.Pos
			depth int
		}
		escaped = make(map[types.Object]bool)
	)

	// Walk with func-literal depth and defer tracking.
	var walk func(n ast.Node, depth int, deferred bool) bool
	walk = func(n ast.Node, depth int, deferred bool) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool { return walk(m, depth+1, deferred) })
			return false
		case *ast.DeferStmt:
			// The deferred call itself (and its nested literal body) runs on
			// every return path.
			ast.Inspect(n.Call, func(m ast.Node) bool { return walk(m, depth, true) })
			return false
		case *ast.ReturnStmt:
			returns = append(returns, struct {
				pos   token.Pos
				depth int
			}{n.Pos(), depth})
		case *ast.AssignStmt:
			// net, err := pool.Get(...) — bind the checkout variable.
			if len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					switch poolMethod(pass, call) {
					case "Get", "GetBatch":
						var obj types.Object
						if id, ok := n.Lhs[0].(*ast.Ident); ok {
							obj = pass.Info.Defs[id]
							if obj == nil {
								obj = pass.Info.Uses[id]
							}
						} else {
							// Checkout straight into a field or element:
							// ownership escapes immediately.
						}
						var errVars []types.Object
						for _, lhs := range n.Lhs[1:] {
							if id, ok := lhs.(*ast.Ident); ok {
								if o := pass.Info.Defs[id]; o != nil {
									errVars = append(errVars, o)
								} else if o := pass.Info.Uses[id]; o != nil {
									errVars = append(errVars, o)
								}
							}
						}
						gets = append(gets, poolCall{call: call,
							batch: poolMethod(pass, call) == "GetBatch", variable: obj,
							errVars: errVars, depth: depth})
						if _, ok := n.Lhs[0].(*ast.Ident); !ok {
							escaped[obj] = true
						}
						// Recurse into args only; the call itself is consumed.
						for _, a := range call.Args {
							ast.Inspect(a, func(m ast.Node) bool { return walk(m, depth, deferred) })
						}
						for _, lhs := range n.Lhs[1:] {
							ast.Inspect(lhs, func(m ast.Node) bool { return walk(m, depth, deferred) })
						}
						return false
					}
				}
			}
		case *ast.CallExpr:
			switch m := poolMethod(pass, n); m {
			case "Put", "PutBatch":
				pc := poolCall{call: n, batch: m == "PutBatch", deferred: deferred, depth: depth}
				if len(n.Args) == 1 {
					if id, ok := n.Args[0].(*ast.Ident); ok {
						pc.variable = pass.Info.Uses[id]
					}
				}
				puts = append(puts, pc)
				return true
			case "Get", "GetBatch":
				// A checkout whose result is not bound (returned directly,
				// passed along): ownership escapes.
				gets = append(gets, poolCall{call: n, batch: m == "GetBatch",
					variable: nil, depth: depth})
				escaped[nil] = true
				return true
			}
		}
		return true
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool { return walk(n, 0, false) })

	if len(gets) == 0 && len(puts) == 0 {
		return
	}
	markEscapes(pass, fn, gets, escaped)
	guards := collectGetGuards(pass, fn, gets)

	for _, g := range gets {
		checkOneGet(pass, g, puts, returns, escaped, guards)
	}
}

// guardSpan is the extent of the error-check if immediately following a
// fallible Get: `net, err := pool.Get(...); if err != nil { return ... }`.
// A return inside it is not a leak — the Get failed, there is nothing to
// put back.
type guardSpan struct{ from, to token.Pos }

// collectGetGuards maps each Get call position to the span of its own
// failure guard, when the next statement in the same block is an if whose
// condition reads an error variable bound by the Get's assignment.
func collectGetGuards(pass *Pass, fn *ast.FuncDecl, gets []poolCall) map[token.Pos]guardSpan {
	byCall := make(map[*ast.CallExpr]poolCall, len(gets))
	for _, g := range gets {
		byCall[g.call] = g
	}
	out := make(map[token.Pos]guardSpan)
	scan := func(list []ast.Stmt) {
		for i := 0; i+1 < len(list); i++ {
			as, ok := list[i].(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				continue
			}
			g, ok := byCall[call]
			if !ok || len(g.errVars) == 0 {
				continue
			}
			ifs, ok := list[i+1].(*ast.IfStmt)
			if !ok || !usesAnyObject(pass, ifs.Cond, g.errVars) {
				continue
			}
			out[call.Pos()] = guardSpan{from: ifs.Pos(), to: ifs.End()}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			scan(n.List)
		case *ast.CaseClause:
			scan(n.Body)
		case *ast.CommClause:
			scan(n.Body)
		}
		return true
	})
	return out
}

// usesAnyObject reports whether e reads any of the given objects.
func usesAnyObject(pass *Pass, e ast.Expr, objs []types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			use := pass.Info.Uses[id]
			for _, o := range objs {
				if use == o {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// markEscapes records checkout variables whose ownership leaves the
// function: returned, stored into a composite literal or a field, or
// passed as an argument to a non-pool call.
func markEscapes(pass *Pass, fn *ast.FuncDecl, gets []poolCall, escaped map[types.Object]bool) {
	vars := make(map[types.Object]bool, len(gets))
	for _, g := range gets {
		if g.variable != nil {
			vars[g.variable] = true
		}
	}
	if len(vars) == 0 {
		return
	}
	isCheckout := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		obj := pass.Info.Uses[id]
		if obj != nil && vars[obj] {
			return obj
		}
		return nil
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if obj := isCheckout(r); obj != nil {
					escaped[obj] = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				e := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if obj := isCheckout(e); obj != nil {
					escaped[obj] = true
				}
			}
		case *ast.AssignStmt:
			// s.net = net (field store) — but net = nil does not escape.
			for i, lhs := range n.Lhs {
				if _, ok := lhs.(*ast.Ident); ok {
					continue
				}
				if i < len(n.Rhs) {
					if obj := isCheckout(n.Rhs[i]); obj != nil {
						escaped[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			if poolMethod(pass, n) != "" {
				return true
			}
			for _, a := range n.Args {
				if obj := isCheckout(a); obj != nil {
					escaped[obj] = true
				}
			}
		}
		return true
	})
}

// checkOneGet applies the pairing rules to one checkout.
func checkOneGet(pass *Pass, g poolCall, puts []poolCall, returns []struct {
	pos   token.Pos
	depth int
}, escaped map[types.Object]bool, guards map[token.Pos]guardSpan) {
	kind := map[bool]string{false: "Get", true: "GetBatch"}[g.batch]
	want := map[bool]string{false: "Put", true: "PutBatch"}[g.batch]

	var matched []*poolCall // same-width puts pairable with this checkout
	anyDeferred := false
	for i := range puts {
		p := &puts[i]
		sameVar := g.variable != nil && p.variable != nil && g.variable == p.variable
		anyVar := g.variable == nil || p.variable == nil
		if !sameVar && !anyVar {
			continue
		}
		if p.batch != g.batch {
			if sameVar {
				pass.Reportf(p.call.Pos(),
					"pool %s checkout %s returned with %s: scalar and batch networks must never cross kinds",
					kind, g.variable.Name(), map[bool]string{false: "Put", true: "PutBatch"}[p.batch])
			}
			continue
		}
		matched = append(matched, p)
		if p.deferred {
			anyDeferred = true
		}
	}

	if len(matched) == 0 {
		if g.variable != nil && escaped[g.variable] {
			return // ownership transferred; the holder puts it back
		}
		if g.variable == nil {
			return // unbound checkout (returned or passed through)
		}
		pass.Reportf(g.call.Pos(),
			"pool %s checkout %s is never returned with %s (and does not escape): the network leaks instead of being recycled",
			kind, g.variable.Name(), want)
		return
	}

	if anyDeferred {
		return // a deferred put covers every return path
	}
	// A return strictly between the Get and the last Put, at function-
	// literal depth <= the Get's, leaves the function without putting
	// back — unless the path already put the checkout back (a put at an
	// earlier position) or the return sits in the Get's own failure guard
	// (the checkout never happened).
	last := matched[0]
	for _, p := range matched[1:] {
		if p.call.Pos() > last.call.Pos() {
			last = p
		}
	}
	guard, guarded := guards[g.call.Pos()]
	for _, r := range returns {
		if r.depth > g.depth {
			continue // a nested closure's return does not leave this function
		}
		if r.pos <= g.call.End() || r.pos >= last.call.Pos() {
			continue
		}
		if guarded && r.pos > guard.from && r.pos < guard.to {
			continue
		}
		covered := false
		for _, p := range matched {
			if p.call.Pos() < r.pos {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		pass.Reportf(r.pos,
			"return between pool %s and its %s leaks the checkout on this path: Put before returning or defer the %s",
			kind, want, want)
	}
}
