// Command noisyvet is the repository's invariant checker: a
// multichecker-style driver for the internal/lint analyzer suite
// (deterministic, drawcontract). It runs two ways:
//
//	noisyvet ./...                        direct: load, check, report
//	go vet -vettool=$(pwd)/noisyvet ./... under go vet's unitchecker protocol
//
// Exit codes: 0 = clean, 1 = findings reported, 2 = usage or load error.
// -json emits one JSON object per finding on stdout instead of the plain
// file:line:col lines on stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"noisyradio/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the -json wire form of one finding, one object per
// line.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	// go vet's handshakes arrive before normal flag parsing: -V=full asks
	// for a version line, -flags for the supported flag set.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		if args[0] != "-V=full" {
			fmt.Fprintf(stderr, "noisyvet: unsupported version flag %s\n", args[0])
			return 2
		}
		fmt.Fprintln(stdout, "noisyvet version devel buildID=noisyvet")
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		return printVetFlags(stdout)
	}

	fs := flag.NewFlagSet("noisyvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON objects, one per line, on stdout")
	list := fs.Bool("list", false, "list the analyzers and exit")
	runSel := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("dir", ".", "directory to resolve package patterns from")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: noisyvet [-json] [-run a,b] [-dir d] packages...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := selectAnalyzers(*runSel)
	if err != nil {
		fmt.Fprintf(stderr, "noisyvet: %v\n", err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%s\n\t%s\n", a.Name, strings.ReplaceAll(a.Doc, "\n", "\n\t"))
		}
		return 0
	}

	pos := fs.Args()
	if len(pos) == 1 && strings.HasSuffix(pos[0], ".cfg") {
		return runVettool(pos[0], *jsonOut, analyzers, stdout, stderr)
	}
	if len(pos) == 0 {
		fs.Usage()
		return 2
	}

	pkgs, err := lint.Load(*dir, pos...)
	if err != nil {
		fmt.Fprintf(stderr, "noisyvet: %v\n", err)
		return 2
	}
	total := 0
	for _, pkg := range pkgs {
		n, err := analyze(pkg, analyzers, *jsonOut, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "noisyvet: %v\n", err)
			return 2
		}
		total += n
	}
	if total > 0 {
		return 1
	}
	return 0
}

// analyze runs the selected analyzers over one package and prints the
// findings; it returns how many were reported.
func analyze(pkg *lint.Package, analyzers []*lint.Analyzer, jsonOut bool, stdout, stderr io.Writer) (int, error) {
	n := 0
	for _, a := range analyzers {
		diags, err := lint.Run(a, pkg)
		if err != nil {
			return n, err
		}
		for _, d := range diags {
			n++
			if jsonOut {
				enc, err := json.Marshal(jsonDiagnostic{
					File:     d.Pos.Filename,
					Line:     d.Pos.Line,
					Column:   d.Pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				})
				if err != nil {
					return n, err
				}
				fmt.Fprintln(stdout, string(enc))
			} else {
				fmt.Fprintln(stderr, d.String())
			}
		}
	}
	return n, nil
}

// selectAnalyzers resolves a -run selector against the suite.
func selectAnalyzers(sel string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if sel == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			known := make([]string, len(all))
			for i, a := range all {
				known[i] = a.Name
			}
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// printVetFlags answers go vet's -flags handshake: the JSON description
// of the flags the tool accepts.
func printVetFlags(stdout io.Writer) int {
	type vetFlag struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	flags := []vetFlag{
		{Name: "json", Bool: true, Usage: "emit findings as JSON"},
	}
	enc, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		return 2
	}
	fmt.Fprintln(stdout, string(enc))
	return 0
}
