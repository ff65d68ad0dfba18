package lint_test

import (
	"strings"
	"testing"

	"noisyradio/internal/lint"
	"noisyradio/internal/lint/linttest"
)

func TestDeterminism(t *testing.T) {
	for _, path := range []string{
		"example/det/internal/stats", // firing + annotated cases
		"example/det/internal/sim",   // dispatcher allowlist
		"example/det/pkg",            // not a plane: silent
	} {
		t.Run(path, func(t *testing.T) {
			linttest.Run(t, "testdata", lint.DeterminismAnalyzer, path)
		})
	}
}

func TestDrawContract(t *testing.T) {
	for _, path := range []string{
		"example/dc/internal/radio", // well-formed table, switch shapes
		"example/dc/dispatch",       // cross-package dispatch sites
		"example/dcbad/internal/radio",
		"example/dcnone/internal/radio",
	} {
		t.Run(path, func(t *testing.T) {
			linttest.Run(t, "testdata", lint.DrawContractAnalyzer, path)
		})
	}
}

// TestAnnotationNeedsReason checks the escape hatch's own invariant: an
// annotation without a reason is reported. (Checked directly rather than
// via // want because the finding lands on a comment-only line.)
func TestAnnotationNeedsReason(t *testing.T) {
	pkg := linttest.Load(t, "testdata", "example/badannot/internal/stats")
	diags, err := lint.Run(lint.DeterminismAnalyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "needs a reason") {
		t.Fatalf("want exactly one needs-a-reason finding, got %v", diags)
	}
}
