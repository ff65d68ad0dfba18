package lint

import (
	"go/ast"
	"go/printer"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// DrawContractAnalyzer machine-enforces the draw-contract registration
// discipline established in PRs 7-8:
//
//  1. Everywhere: a switch on radio.DrawContract must either cover every
//     registered version or carry a default arm that names the contract
//     value it rejected — a new DrawV5 then breaks vet at every dispatch
//     site instead of silently taking a fallthrough.
//  2. In the package defining DrawContract: every version constant must
//     have a contractSpecs descriptor row with a name and a committed
//     golden file, and Config.Validate must consult the descriptor table.
//
// //lint:drawcontract-ok <reason> silences one finding.
var DrawContractAnalyzer = &Analyzer{
	Name: "drawcontract",
	Doc: "require draw-contract switches to be exhaustive (or name the contract in their\n" +
		"default arm) and every contract version to register a descriptor row, a committed\n" +
		"golden and Validate coverage",
	Run: runDrawContract,
}

func runDrawContract(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkContractSwitch(pass, sw)
			return true
		})
	}
	if named, consts := localDrawContract(pass); named != nil {
		checkContractTable(pass, named, consts)
	}
	return nil
}

// drawContractType reports whether t is the DrawContract type of a radio
// package (the real one, or a testdata twin with the same path suffix).
func drawContractType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Name() != "DrawContract" || obj.Pkg() == nil {
		return nil
	}
	if !pathHasSuffix(obj.Pkg().Path(), "internal/radio") {
		return nil
	}
	return named
}

// contractConstants returns the declared constants of the DrawContract
// type, in declaration (= version) order.
func contractConstants(named *types.Named) []*types.Const {
	scope := named.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// checkContractSwitch enforces rule 1 on one switch statement.
func checkContractSwitch(pass *Pass, sw *ast.SwitchStmt) {
	tagType := pass.Info.TypeOf(sw.Tag)
	if tagType == nil {
		return
	}
	named := drawContractType(tagType)
	if named == nil {
		return
	}
	all := contractConstants(named)
	if len(all) == 0 {
		return
	}
	covered := make(map[*types.Const]bool)
	var defaultClause *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			if c := constOf(pass, e); c != nil {
				covered[c] = true
			}
		}
	}
	var missing []string
	for _, c := range all {
		if !covered[c] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	if defaultClause == nil {
		pass.Reportf(sw.Pos(),
			"switch on %s does not cover %s and has no default arm: add the missing cases or a default naming the contract",
			named.Obj().Name(), strings.Join(missing, ", "))
		return
	}
	if !mentionsExpr(pass, defaultClause.Body, sw.Tag) {
		pass.Reportf(defaultClause.Pos(),
			"default arm of a non-exhaustive %s switch (missing %s) does not name the contract: mention %s in its panic or error",
			named.Obj().Name(), strings.Join(missing, ", "), renderExpr(pass, sw.Tag))
	}
}

// constOf resolves a case expression to the constant object it names.
func constOf(pass *Pass, e ast.Expr) *types.Const {
	switch e := e.(type) {
	case *ast.Ident:
		if c, ok := pass.Info.Uses[e].(*types.Const); ok {
			return c
		}
	case *ast.SelectorExpr:
		if c, ok := pass.Info.Uses[e.Sel].(*types.Const); ok {
			return c
		}
	}
	return nil
}

// renderExpr prints an expression as source text.
func renderExpr(pass *Pass, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, pass.Fset, e); err != nil {
		return "the contract value"
	}
	return sb.String()
}

// mentionsExpr reports whether any expression inside body renders to the
// same source text as want (e.g. the default arm panicking with c.Draw).
func mentionsExpr(pass *Pass, body []ast.Stmt, want ast.Expr) bool {
	wantSrc := renderExpr(pass, want)
	found := false
	for _, stmt := range body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if found {
				return false
			}
			if e, ok := n.(ast.Expr); ok && renderExpr(pass, e) == wantSrc {
				found = true
				return false
			}
			return true
		})
	}
	return found
}

// localDrawContract returns the DrawContract type defined by this package
// (rule 2 applies only there) and its constants.
func localDrawContract(pass *Pass) (*types.Named, []*types.Const) {
	if !pathHasSuffix(pass.Pkg.Path(), "internal/radio") {
		return nil, nil
	}
	obj, ok := pass.Pkg.Scope().Lookup("DrawContract").(*types.TypeName)
	if !ok {
		return nil, nil
	}
	named := drawContractType(obj.Type())
	if named == nil {
		return nil, nil
	}
	consts := contractConstants(named)
	if len(consts) == 0 {
		return nil, nil
	}
	return named, consts
}

// checkContractTable enforces rule 2: descriptor rows, goldens and
// Validate coverage for every registered version.
func checkContractTable(pass *Pass, named *types.Named, consts []*types.Const) {
	specs := findContractSpecs(pass)
	if specs == nil {
		pass.Reportf(named.Obj().Pos(),
			"package defines DrawContract but no contractSpecs descriptor table: every version must register its name, golden and validator in one place")
		return
	}
	for _, c := range consts {
		row, ok := specs[c.Name()]
		if !ok {
			pass.Reportf(c.Pos(),
				"contract %s has no contractSpecs row: register its name, golden file and validator", c.Name())
			continue
		}
		checkSpecRow(pass, c, row)
	}
	checkValidate(pass, named)
}

// findContractSpecs locates the contractSpecs composite literal and maps
// each contract constant name to its row literal.
func findContractSpecs(pass *Pass) map[string]*ast.CompositeLit {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "contractSpecs" || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					rows := make(map[string]*ast.CompositeLit)
					for _, elt := range lit.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						c := constOf(pass, kv.Key)
						row, okRow := kv.Value.(*ast.CompositeLit)
						if c != nil && okRow {
							rows[c.Name()] = row
						}
					}
					return rows
				}
			}
		}
	}
	return nil
}

// checkSpecRow requires a non-empty name and a committed golden file in
// one descriptor row.
func checkSpecRow(pass *Pass, c *types.Const, row *ast.CompositeLit) {
	fields := make(map[string]ast.Expr)
	for _, elt := range row.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				fields[id.Name] = kv.Value
			}
		}
	}
	name := stringLiteral(pass, fields["name"])
	if name == "" {
		pass.Reportf(row.Pos(), "contractSpecs row for %s has no name", c.Name())
	}
	golden := stringLiteral(pass, fields["golden"])
	if golden == "" {
		pass.Reportf(row.Pos(),
			"contractSpecs row for %s has no golden file: every version freezes its outputs under internal/experiments/testdata", c.Name())
		return
	}
	// The golden must actually be committed: a registered filename whose
	// file does not exist means the version shipped without frozen
	// outputs.
	goldenPath := filepath.Join(pass.Dir, "..", "experiments", "testdata", golden)
	if _, err := os.Stat(goldenPath); err != nil {
		pass.Reportf(fields["golden"].Pos(),
			"golden file %s for contract %s is not committed under internal/experiments/testdata", golden, c.Name())
	}
}

// stringLiteral resolves e to its constant string value, or "".
func stringLiteral(pass *Pass, e ast.Expr) string {
	if e == nil {
		return ""
	}
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return ""
	}
	s, err := strconv.Unquote(tv.Value.ExactString())
	if err != nil {
		return ""
	}
	return s
}

// checkValidate requires Config.Validate to consult the descriptor table
// (directly or via each version's registered validator).
func checkValidate(pass *Pass, named *types.Named) {
	cfg, ok := pass.Pkg.Scope().Lookup("Config").(*types.TypeName)
	if !ok {
		return
	}
	var validateDecl *ast.FuncDecl
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "Validate" || fn.Recv == nil || len(fn.Recv.List) == 0 {
				continue
			}
			rt := pass.Info.TypeOf(fn.Recv.List[0].Type)
			if rt == nil {
				continue
			}
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			if n, ok := rt.(*types.Named); ok && n.Obj() == cfg {
				validateDecl = fn
			}
		}
	}
	if validateDecl == nil {
		pass.Reportf(cfg.Pos(),
			"Config has no Validate method checking the draw contract against contractSpecs")
		return
	}
	uses := false
	ast.Inspect(validateDecl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "contractSpecs" {
			if _, isVar := pass.Info.Uses[id].(*types.Var); isVar {
				uses = true
			}
		}
		return true
	})
	if !uses {
		pass.Reportf(validateDecl.Pos(),
			"Config.Validate does not consult contractSpecs: a new contract version could skip its validity arm")
	}
}
