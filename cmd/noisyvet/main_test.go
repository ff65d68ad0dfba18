package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// run wraps the package-level run with captured output.
func runCaptured(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListExitsZero(t *testing.T) {
	code, stdout, _ := runCaptured(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d, want 0", code)
	}
	for _, name := range []string{"deterministic", "drawcontract"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout)
		}
	}
}

func TestUnknownAnalyzerExitsTwo(t *testing.T) {
	code, _, stderr := runCaptured(t, "-run", "nosuch", "./...")
	if code != 2 {
		t.Fatalf("unknown analyzer: exit %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("stderr does not name the unknown analyzer: %s", stderr)
	}
}

func TestNoPackagesExitsTwo(t *testing.T) {
	code, _, _ := runCaptured(t)
	if code != 2 {
		t.Fatalf("no packages: exit %d, want 2", code)
	}
}

func TestVersionHandshake(t *testing.T) {
	code, stdout, _ := runCaptured(t, "-V=full")
	if code != 0 {
		t.Fatalf("-V=full: exit %d, want 0", code)
	}
	// go vet requires at least "name version fingerprint".
	if fields := strings.Fields(stdout); len(fields) < 3 || fields[0] != "noisyvet" {
		t.Errorf("-V=full output %q does not satisfy the vet handshake", stdout)
	}
}

func TestDirtyModuleExitsOne(t *testing.T) {
	code, _, stderr := runCaptured(t, "-dir", filepath.Join("testdata", "src", "dirty"), "./...")
	if code != 1 {
		t.Fatalf("dirty module: exit %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "time.Now in a deterministic plane") {
		t.Errorf("dirty module findings missing the seeded violation: %s", stderr)
	}
}

func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runCaptured(t, "-json", "-dir", filepath.Join("testdata", "src", "dirty"), "./...")
	if code != 1 {
		t.Fatalf("dirty module -json: exit %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("-json produced no findings on stdout")
	}
	for _, line := range lines {
		var d jsonDiagnostic
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("-json line %q: %v", line, err)
		}
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("-json finding with empty fields: %+v", d)
		}
	}
}

// TestTreeClean is the acceptance smoke test: the full suite over the
// whole repository must be clean.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree typecheck in -short mode")
	}
	code, _, stderr := runCaptured(t, "-dir", filepath.Join("..", ".."), "./...")
	if code != 0 {
		t.Fatalf("noisyvet ./... not clean (exit %d):\n%s", code, stderr)
	}
}

// TestVettoolProtocol runs the real `go vet -vettool` pipeline against
// the dirty module and expects the seeded finding.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "noisyvet")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building noisyvet: %v\n%s", err, out)
	}
	dirty, err := filepath.Abs(filepath.Join("testdata", "src", "dirty"))
	if err != nil {
		t.Fatal(err)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = dirty
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool on the dirty module succeeded; want failure\n%s", out)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("go vet -vettool did not run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "time.Now in a deterministic plane") {
		t.Errorf("vettool output missing the seeded finding:\n%s", out)
	}
	// And the clean path: vet over a package with no findings exits 0.
	clean := exec.Command("go", "vet", "-vettool="+bin, "./internal/rng/")
	clean.Dir = repoRoot(t)
	if out, err := clean.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool on a clean package failed: %v\n%s", err, out)
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	return root
}
