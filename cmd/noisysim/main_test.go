package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"noisyradio/internal/benchreport"
)

// capture runs the CLI entry with args and returns its stdout.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(args, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestList(t *testing.T) {
	out, err := capture(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E13", "E19", "F1", "A2"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list output missing %s:\n%s", id, out)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, err := capture(t, "-exp", "F2", "-quick", "-seed", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "== F2: WCT construction ==") {
		t.Fatalf("missing table header:\n%s", out)
	}
	if !strings.Contains(out, "(F2 in ") {
		t.Fatalf("missing timing footer:\n%s", out)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	out, err := capture(t, "-exp", "F1, F2", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "== F1") || !strings.Contains(out, "== F2") {
		t.Fatalf("comma-separated ids not both run:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := capture(t, "-exp", "E99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestMissingExpFlag(t *testing.T) {
	if _, err := capture(t); err == nil {
		t.Fatal("no arguments accepted")
	}
}

func TestJSONOutput(t *testing.T) {
	out, err := capture(t, "-exp", "F1,F2", "-quick", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID      string     `json:"id"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &tables); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(tables) != 2 || tables[0].ID != "F1" || tables[1].ID != "F2" {
		t.Fatalf("tables = %+v", tables)
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
			t.Fatalf("empty table %s", tbl.ID)
		}
	}
}

// The engine selector must not change any output byte: the two engines
// draw randomness in the same canonical order.
func TestEngineFlagOutputsIdentical(t *testing.T) {
	sparse, err := capture(t, "-exp", "E9", "-quick", "-seed", "3", "-json", "-engine", "sparse")
	if err != nil {
		t.Fatal(err)
	}
	dense, err := capture(t, "-exp", "E9", "-quick", "-seed", "3", "-json", "-engine", "dense")
	if err != nil {
		t.Fatal(err)
	}
	if sparse != dense {
		t.Fatalf("engine changed experiment output\nsparse:\n%s\ndense:\n%s", sparse, dense)
	}
}

func TestEngineFlagValidation(t *testing.T) {
	if _, err := capture(t, "-exp", "F1", "-quick", "-engine", "turbo"); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestDemoEngineFlag(t *testing.T) {
	out, err := capture(t, "-demo", "decay", "-n", "12", "-fault", "receiver", "-seed", "4", "-engine", "dense")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "success=true") {
		t.Fatalf("dense demo did not succeed:\n%s", out)
	}
}

func TestDemoDecay(t *testing.T) {
	out, err := capture(t, "-demo", "decay", "-n", "12", "-p", "0.2", "-fault", "receiver", "-seed", "4")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"decay on path(n=12)", "success=true", "round |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("demo output missing %q:\n%s", want, out)
		}
	}
}

func TestDemoAllAlgorithmsAndModels(t *testing.T) {
	for _, algo := range []string{"decay", "fastbc", "robust-fastbc"} {
		for _, fault := range []string{"none", "sender", "receiver"} {
			out, err := capture(t, "-demo", algo, "-n", "10", "-fault", fault, "-seed", "5")
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, fault, err)
			}
			if !strings.Contains(out, "success=true") {
				t.Fatalf("%s/%s did not succeed:\n%s", algo, fault, out)
			}
		}
	}
}

func TestDemoValidation(t *testing.T) {
	if _, err := capture(t, "-demo", "bogus"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := capture(t, "-demo", "decay", "-fault", "bogus"); err == nil {
		t.Fatal("unknown fault model accepted")
	}
	if _, err := capture(t, "-demo", "decay", "-n", "1"); err == nil {
		t.Fatal("n=1 accepted")
	}
	// The algorithm is checked before the workload is built, so an
	// unknown one is named even beside an unknown topology.
	if _, err := capture(t, "-demo", "bogus", "-topology", "bogus"); err == nil || !strings.Contains(err.Error(), `unknown algorithm "bogus"`) {
		t.Fatalf("-demo bogus -topology bogus: error %v, want the unknown algorithm named", err)
	}
}

// TestTopologyFlag: every -topology choice runs the demo end to end and
// names the workload in the header.
func TestTopologyFlag(t *testing.T) {
	for _, tt := range []struct {
		topology string
		n        string
		want     string
	}{
		{"path", "12", "path(n=12)"},
		{"complete", "12", "complete(n=12)"},
		{"star", "12", "star(leaves=11)"},
		{"cycle", "12", "cycle(n=12)"},
		{"grid", "16", "grid(4x4)"},
		{"hypercube", "16", "hypercube(dim=4)"},
	} {
		out, err := capture(t, "-demo", "decay", "-topology", tt.topology, "-n", tt.n, "-fault", "none", "-seed", "2")
		if err != nil {
			t.Fatalf("-topology %s: %v", tt.topology, err)
		}
		if !strings.Contains(out, tt.want) || !strings.Contains(out, "success=true") {
			t.Fatalf("-topology %s output missing %q or success:\n%s", tt.topology, tt.want, out)
		}
	}
}

// TestTopologySizeValidation: CLI-derived sizes that would panic inside
// the graph generators must surface as usage errors instead.
func TestTopologySizeValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-demo", "decay", "-topology", "bogus", "-n", "12"},
		{"-demo", "decay", "-topology", "cycle", "-n", "2"},
		{"-demo", "decay", "-topology", "grid", "-n", "12"},
		{"-demo", "decay", "-topology", "hypercube", "-n", "12"},
		{"-demo", "decay", "-topology", "hypercube", "-n", "2097152"},
		{"-demo", "decay", "-topology", "complete", "-n", "0"},
		{"-demo", "decay", "-topology", "star", "-n", "-3"},
		{"-schedule", "decay", "-topology", "grid", "-n", "12"},
		{"-schedule", "decay", "-topology", "bogus", "-n", "12"},
		{"-exp", "F1", "-quick", "-trials", "-5"},
	} {
		if _, err := capture(t, args...); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

// TestDemoLargeNImplicit is the large-n demo row: the complete workload
// stores no adjacency, so the broadcast completes at 2^17 nodes, where a
// bit matrix would need 2 GB. FASTBC and Robust FASTBC build their GBST
// from the closed form, so they run on it too, as demos and as schedule
// sweeps.
func TestDemoLargeNImplicit(t *testing.T) {
	out, err := capture(t, "-demo", "decay", "-topology", "complete", "-n", "131072", "-fault", "sender", "-p", "0.1", "-seed", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "complete(n=131072)") || !strings.Contains(out, "success=true") {
		t.Fatalf("large-n implicit demo failed:\n%s", out)
	}
	for _, algo := range []string{"fastbc", "robust-fastbc"} {
		out, err := capture(t, "-demo", algo, "-topology", "complete", "-n", "8192", "-fault", "receiver", "-p", "0.1", "-seed", "2")
		if err != nil || !strings.Contains(out, "success=true") {
			t.Fatalf("-demo %s on complete(n=8192): %v\n%s", algo, err, out)
		}
		out, err = capture(t, "-schedule", algo, "-topology", "complete", "-n", "8192", "-trials", "2", "-fault", "receiver", "-p", "0.1", "-seed", "2")
		if err != nil || !strings.Contains(out, "plan: engine implicit") || !strings.Contains(out, "success: 2/2") {
			t.Fatalf("-schedule %s on complete(n=8192): %v\n%s", algo, err, out)
		}
	}
}

// TestPipelinedBatchRoutingComplete: pipelined-batch-routing groups the
// complete graph into BFS layers from its closed form, at n = 4096 as at
// any other n, and every trial delivers both messages.
func TestPipelinedBatchRoutingComplete(t *testing.T) {
	out, err := capture(t, "-schedule", "pipelined-batch-routing", "-topology", "complete", "-n", "4096", "-k", "2", "-trials", "2", "-fault", "receiver", "-p", "0.1", "-seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"complete(n=4096)", "plan: engine implicit", "success: 2/2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestScheduleLargeNImplicit: a schedule sweep on an implicit workload
// resolves the implicit engine and reports its scalar plan.
func TestScheduleLargeNImplicit(t *testing.T) {
	out, err := capture(t, "-schedule", "decay", "-topology", "complete", "-n", "100000", "-trials", "3", "-fault", "sender", "-p", "0.1", "-seed", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"complete(n=100000)", "plan: engine implicit", "success: 3/3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("large-n schedule output missing %q:\n%s", want, out)
		}
	}
}

// The scheduling knobs must not change any output byte: -workers sizes the
// shared pool and -rowworkers bounds row admission, nothing else.
func TestRowWorkersFlagOutputsIdentical(t *testing.T) {
	base, err := capture(t, "-exp", "E3,F1", "-quick", "-seed", "3", "-json")
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-workers", "1", "-rowworkers", "1"},
		{"-workers", "8", "-rowworkers", "2"},
		{"-workers", "3", "-rowworkers", "5"},
	} {
		got, err := capture(t, append([]string{"-exp", "E3,F1", "-quick", "-seed", "3", "-json"}, args...)...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if got != base {
			t.Fatalf("%v changed experiment output", args)
		}
	}
}

func TestBenchJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	if _, err := capture(t, "-exp", "F1,F2", "-quick", "-seed", "1", "-benchjson", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchreport.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid bench report: %v\n%s", err, data)
	}
	if rep.Suite != "F1,F2" || !rep.Quick || rep.Tables != 2 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if rep.Rows == 0 || rep.WallSeconds <= 0 || rep.RowsPerSec <= 0 {
		t.Fatalf("report metrics missing: %+v", rep)
	}
	if len(rep.Experiments) != 2 || rep.Experiments[0].ID != "F1" {
		t.Fatalf("per-experiment timings wrong: %+v", rep.Experiments)
	}
}

func TestBenchJSONCountsTrials(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if _, err := capture(t, "-exp", "E4", "-quick", "-seed", "1", "-benchjson", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchreport.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Trials <= 0 {
		t.Fatalf("trial count not recorded: %+v", rep)
	}
	if rep.AllocsPerTrial <= 0 {
		t.Fatalf("allocs/trial not recorded: %+v", rep)
	}
}

func TestBenchJSONBadPath(t *testing.T) {
	if _, err := capture(t, "-exp", "F1", "-quick", "-benchjson", filepath.Join(t.TempDir(), "missing", "dir", "b.json")); err == nil {
		t.Fatal("unwritable benchjson path accepted")
	}
}

func TestScheduleList(t *testing.T) {
	out, err := capture(t, "-schedule", "list")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"decay", "robust-fastbc", "star-coding", "wct-routing", "transformed-path-coding"} {
		if !strings.Contains(out, name) {
			t.Fatalf("schedule list missing %s:\n%s", name, out)
		}
	}
}

func TestScheduleRun(t *testing.T) {
	out, err := capture(t, "-schedule", "decay", "-n", "32", "-trials", "8", "-p", "0.2", "-fault", "receiver", "-seed", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"schedule: decay", "success: 8/8", "rounds: mean", "plan: engine"} {
		if !strings.Contains(out, want) {
			t.Fatalf("schedule run output missing %q:\n%s", want, out)
		}
	}
}

func TestScheduleRunMulti(t *testing.T) {
	out, err := capture(t, "-schedule", "single-link-coding", "-k", "16", "-trials", "10", "-p", "0.5", "-fault", "receiver")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "throughput:") {
		t.Fatalf("multi-message schedule run missing throughput:\n%s", out)
	}
}

func TestScheduleRunValidation(t *testing.T) {
	if _, err := capture(t, "-schedule", "bogus"); err == nil {
		t.Fatal("unknown schedule accepted")
	}
	if _, err := capture(t, "-schedule", "decay", "-n", "1"); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := capture(t, "-schedule", "rlnc", "-k", "0"); err == nil {
		t.Fatal("k=0 accepted")
	}
	// An invalid noise spec is rejected by the radio config check before
	// the workload is built, not reported from inside the first trial.
	for _, noise := range badNoiseSpecs {
		args := append([]string{"-schedule", "decay", "-topology", "grid", "-n", "64", "-trials", "2", "-fault", "receiver"}, noise...)
		if _, err := capture(t, args...); err == nil || !strings.HasPrefix(err.Error(), "radio: ") {
			t.Errorf("%v: error %v, want the radio config's validation error", noise, err)
		}
	}
}

// badNoiseSpecs are -p/-drawcontract flag sets that radio.Config.Validate
// rejects under receiver faults: p outside [0, 1), NaN, and a v3 p that
// reaches the default bad-phase fault probability 0.5.
var badNoiseSpecs = [][]string{
	{"-p", "1.5"},
	{"-p", "NaN"},
	{"-drawcontract", "v3", "-p", "0.6"},
}

// The forced dense engine must not change any output byte at any worker
// count: E3 on -engine dense prints the auto engine's tables with one,
// three and eight workers.
func TestDenseEngineWorkersOutputsIdentical(t *testing.T) {
	base, err := capture(t, "-exp", "E3", "-quick", "-seed", "3", "-json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"1", "3", "8"} {
		got, err := capture(t, "-exp", "E3", "-quick", "-seed", "3", "-json", "-engine", "dense", "-workers", w)
		if err != nil {
			t.Fatalf("-workers %s: %v", w, err)
		}
		if got != base {
			t.Fatalf("-engine dense -workers %s changed experiment output", w)
		}
	}
}

// The bench report must record the execution plan of every schedule row:
// its engine, width 1 and a reason.
func TestBenchJSONRecordsPlans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if _, err := capture(t, "-exp", "E3", "-quick", "-seed", "1", "-benchjson", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchreport.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Plans) == 0 {
		t.Fatalf("report records no plans: %+v", rep)
	}
	for _, p := range rep.Plans {
		if p.Schedule == "" || p.Engine == "" || p.Width != 1 || p.Count < 1 || p.Reason == "" {
			t.Fatalf("malformed plan entry: %+v", p)
		}
	}
}
