// Package lint is the noisyvet analyzer suite: static checks that
// machine-enforce the repository's cross-cutting invariants — determinism
// of the hot simulation planes, including the absence of package-level
// mutable state there, and draw-contract exhaustiveness — at vet time
// instead of waiting for a golden or differential test to catch the
// symptom.
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) on the standard library alone, because the
// build environment vendors no third-party modules. An Analyzer here is a
// drop-in conceptual twin: if x/tools ever becomes available, each Run
// function ports mechanically. cmd/noisyvet is the multichecker-style
// driver; it also speaks go vet's -vettool unitchecker protocol, so the
// suite runs both standalone and under `go vet -vettool`.
//
// Escape hatch: a finding that is deliberate is silenced by an annotation
// comment on the offending line (or the line above it):
//
//	//lint:deterministic-ok <reason>   (determinism analyzer)
//	//lint:drawcontract-ok <reason>    (drawcontract analyzer)
//
// The reason is mandatory: an annotation without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-paragraph description shown by noisyvet -list.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// A Pass presents one package to an Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed non-test sources.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's fact tables for Files.
	Info *types.Info
	// Dir is the package's source directory on disk, for checks that
	// consult committed artifacts (golden files).
	Dir string

	report func(Diagnostic)
	annots map[string]map[int]annotation // file -> line -> annotation
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless an annotation for this analyzer
// covers the position's line or the line above it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.annotated(position) {
		return
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// annotation is one parsed //lint:<name>-ok comment.
type annotation struct {
	analyzer string // analyzer name the annotation silences
	reason   string
	pos      token.Pos
	used     bool
}

// annotationPrefix is the comment marker shared by every analyzer's
// escape hatch: //lint:<analyzer>-ok <reason>.
const annotationPrefix = "lint:"

// collectAnnotations indexes every //lint:<analyzer>-ok comment of the
// pass's files by file and line. A trailing comment annotates its own
// line; a comment alone on a line annotates the next line.
func collectAnnotations(fset *token.FileSet, files []*ast.File) map[string]map[int]annotation {
	out := make(map[string]map[int]annotation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+annotationPrefix)
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(text, " ")
				if !strings.HasSuffix(name, "-ok") {
					continue
				}
				pos := fset.Position(c.Slash)
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]annotation)
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = annotation{
					analyzer: strings.TrimSuffix(name, "-ok"),
					reason:   strings.TrimSpace(reason),
					pos:      c.Slash,
				}
			}
		}
	}
	return out
}

// annotated reports whether an annotation for this pass's analyzer covers
// the line or the line above, and marks it used.
func (p *Pass) annotated(pos token.Position) bool {
	byLine := p.annots[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		a, ok := byLine[line]
		if ok && a.analyzer == p.Analyzer.Name && a.reason != "" {
			a.used = true
			byLine[line] = a
			return true
		}
	}
	return false
}

// checkAnnotations reports annotations that are malformed (no reason).
// Unused-but-well-formed annotations are tolerated: analyzers overlap
// (a map range and a float reduction can share a line), and an annotation
// kept across a refactor is harmless.
func checkAnnotations(p *Pass) {
	type bad struct {
		pos token.Pos
		msg string
	}
	var bads []bad
	for _, byLine := range p.annots {
		for _, a := range byLine {
			if a.analyzer == p.Analyzer.Name && a.reason == "" {
				bads = append(bads, bad{a.pos, fmt.Sprintf(
					"//lint:%s-ok annotation needs a reason", a.analyzer)})
			}
		}
	}
	sort.Slice(bads, func(i, j int) bool { return bads[i].pos < bads[j].pos })
	for _, b := range bads {
		position := p.Fset.Position(b.pos)
		p.report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: b.msg})
	}
}

// isTestFile reports whether the file at pos is a _test.go file; the
// determinism-plane invariants bind production sources only.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}

// pathHasSuffix reports whether the slash-separated import path ends in
// suffix on a path-segment boundary ("a/internal/radio" matches
// "internal/radio"; "x/notinternal/radio" does not).
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// Run executes one analyzer over one loaded package and returns its
// findings sorted by position.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Dir:      pkg.Dir,
		report:   func(d Diagnostic) { diags = append(diags, d) },
		annots:   collectAnnotations(pkg.Fset, pkg.Files),
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	checkAnnotations(pass)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// Analyzers returns the full noisyvet suite in fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		DrawContractAnalyzer,
	}
}
