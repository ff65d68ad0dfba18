package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config {
	return Config{Quick: true, Seed: 1, Workers: 4}
}

// TestAllExperimentsRunQuick executes every registered experiment in quick
// mode: tables must materialise with rows, notes and no errors.
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.ID != e.ID {
				t.Fatalf("table ID %q != registry ID %q", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if len(tbl.Columns) == 0 {
				t.Fatalf("%s has no columns", e.ID)
			}
			for ri, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("%s row %d has %d cells, want %d", e.ID, ri, len(row), len(tbl.Columns))
				}
			}
			out := tbl.String()
			if !strings.Contains(out, e.ID) || !strings.Contains(out, tbl.Columns[0]) {
				t.Fatalf("%s render missing header: %q", e.ID, out[:min(len(out), 120)])
			}
		})
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range append(Registry(), Extras()...) {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("E1"); !ok {
		t.Fatal("E1 not found")
	}
	if _, ok := Lookup("e13"); !ok {
		t.Fatal("lookup should be case-insensitive")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("bogus id found")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		ID:      "T",
		Title:   "demo",
		Claim:   "claim text",
		Columns: []string{"a", "long column"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333333", "4")
	tbl.AddNote("value %d", 42)
	out := tbl.String()
	for _, want := range []string{"== T: demo ==", "paper: claim text", "long column", "333333", "note: value 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestConfigTrials(t *testing.T) {
	if got := (Config{}).trials(10, 3); got != 10 {
		t.Fatalf("default trials = %d", got)
	}
	if got := (Config{Quick: true}).trials(10, 3); got != 3 {
		t.Fatalf("quick trials = %d", got)
	}
	if got := (Config{Trials: 7, Quick: true}).trials(10, 3); got != 7 {
		t.Fatalf("explicit trials = %d", got)
	}
}

func TestFormattersStable(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.5:     "0.500",
		12.34:   "12.3",
		1234.56: "1235",
	}
	for in, want := range cases {
		if got := f(in); got != want {
			t.Fatalf("f(%v) = %q, want %q", in, got, want)
		}
	}
	if d(42) != "42" {
		t.Fatal("d broken")
	}
}

// TestExperimentsDeterministic: the same Config yields byte-identical
// tables (seeded Monte Carlo, order-stable parallelism).
func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"E3", "E9", "E16"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		a, err := e.Run(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s not deterministic", id)
		}
	}
}

// TestE9GapGrowsQuick sanity-checks the headline Theorem 17 shape even in
// quick mode: the measured star gap grows between the two swept sizes.
func TestE9GapGrowsQuick(t *testing.T) {
	tbl, err := E9StarGap(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 2 {
		t.Fatalf("need 2 rows, got %d", len(tbl.Rows))
	}
	first := parseCell(t, tbl.Rows[0][3])
	last := parseCell(t, tbl.Rows[len(tbl.Rows)-1][3])
	if last <= first {
		t.Fatalf("star gap did not grow: %v -> %v", first, last)
	}
}

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}
