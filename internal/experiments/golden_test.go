package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"noisyradio/internal/radio"
)

// encodeTables renders tables exactly as `noisysim -exp all -quick -json`
// does, so the golden file can be regenerated with the binary.
func encodeTables(t *testing.T, tables []Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tables); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runAll(t *testing.T, cfg Config) []byte {
	t.Helper()
	tables := make([]Table, 0, len(Registry()))
	for _, e := range Registry() {
		tbl, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		tables = append(tables, tbl)
	}
	return encodeTables(t, tables)
}

// TestGoldenTablesBitIdentical pins the entire quick suite to the output
// of the pre-sweep-scheduler harness (testdata/golden_quick.json, produced
// by `noisysim -exp all -quick -json -seed 1` before the row-parallel
// refactor): every (Workers, RowWorkers, Engine) combination must
// reproduce it byte for byte. This is the contract that parallelism and
// streaming statistics are pure speed knobs.
//
// Regenerate the golden (only when a deliberate semantic change to an
// experiment is made):
//
//	go run ./cmd/noisysim -exp all -quick -json -seed 1 > internal/experiments/testdata/golden_quick.json
func TestGoldenTablesBitIdentical(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	configs := []Config{
		{Quick: true, Seed: 1},                                                 // library defaults
		{Quick: true, Seed: 1, Workers: 1, RowWorkers: 1},                      // fully serial
		{Quick: true, Seed: 1, Workers: 8, RowWorkers: 2},                      // oversubscribed pool, admission-limited rows
		{Quick: true, Seed: 1, Workers: 5, RowWorkers: 3},                      // deliberately awkward split
		{Quick: true, Seed: 1, Workers: 8, Engine: radio.Sparse},               // forced sparse engine
		{Quick: true, Seed: 1, Workers: 2, RowWorkers: 1, Engine: radio.Dense}, // forced dense engine
		{Quick: true, Seed: 1, Workers: 1},                                     // serial pool, every row admitted
		{Quick: true, Seed: 1, Workers: 8, Engine: radio.Dense},                // oversubscribed pool on the forced dense engine
		{Quick: true, Seed: 1, Workers: 3, Engine: radio.Dense},                // awkward pool on the forced dense engine
		{Quick: true, Seed: 1, Workers: 4, Engine: radio.Sparse},               // forced sparse engine, four workers
		{Quick: true, Seed: 1, Workers: 3, Engine: radio.Implicit},             // forced implicit engine, auto where no model
	}
	for _, cfg := range configs {
		cfg := cfg
		name := fmt.Sprintf("workers=%d,rowworkers=%d,engine=%s", cfg.Workers, cfg.RowWorkers, cfg.Engine)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got := runAll(t, cfg)
			if !bytes.Equal(got, want) {
				t.Fatalf("suite output diverged from the pre-refactor golden at %s (%d vs %d bytes)", name, len(got), len(want))
			}
		})
	}
}

// goldenSuiteConfig is the Config under which each non-default draw
// contract's full-suite golden was generated (beyond Quick/Seed/Draw,
// which the caller sets). v3 raises the bad-phase fault probability to
// 0.9 because the suite sweeps marginals up to p=0.7 and the stationary
// marginal must stay below BadP; v2 and v4 run on their defaults.
func goldenSuiteConfig(dc radio.DrawContract) Config {
	cfg := Config{Quick: true, Seed: 1, Draw: dc}
	if dc == radio.DrawV3 {
		cfg.Burst = radio.BurstParams{BadP: 0.9}
	}
	return cfg
}

// TestGoldenTablesBitIdenticalPerDrawContract pins the quick suite under
// every non-default draw contract to that contract's own golden (named by
// the contract's registry entry): within a version, every
// (Workers, RowWorkers, Engine) combination must reproduce it byte for
// byte — the contract version changes which universe runs, never lets
// scheduling or engine choice leak into results. Each version's golden is
// a different file than v1's by design (checked below); a vN run must
// never be compared against another version's golden.
//
// Regenerate (only on a deliberate semantic change to a contract or an
// experiment):
//
//	go run ./cmd/noisysim -exp all -quick -json -seed 1 -drawcontract v2 > internal/experiments/testdata/golden_quick_v2.json
//	go run ./cmd/noisysim -exp all -quick -json -seed 1 -drawcontract v3 -burstbadp 0.9 > internal/experiments/testdata/golden_quick_v3.json
//	go run ./cmd/noisysim -exp all -quick -json -seed 1 -drawcontract v4 > internal/experiments/testdata/golden_quick_v4.json
func TestGoldenTablesBitIdenticalPerDrawContract(t *testing.T) {
	v1, err := os.ReadFile("testdata/golden_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, dc := range radio.DrawContracts()[1:] {
		dc := dc
		t.Run(dc.String(), func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile("testdata/" + dc.GoldenFile())
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(want, v1) {
				t.Fatalf("%v golden is byte-identical to the v1 golden — the contracts cannot share a universe", dc)
			}
			base := goldenSuiteConfig(dc)
			variants := []func(Config) Config{
				func(c Config) Config { return c },                                                        // library defaults
				func(c Config) Config { c.Workers, c.RowWorkers = 1, 1; return c },                        // fully serial
				func(c Config) Config { c.Workers, c.Engine = 8, radio.Sparse; return c },                 // forced sparse engine
				func(c Config) Config { c.Workers, c.RowWorkers, c.Engine = 2, 1, radio.Dense; return c }, // forced dense engine
				func(c Config) Config { c.Workers = 1; return c },                                         // serial pool, every row admitted
				func(c Config) Config { c.Workers, c.Engine = 3, radio.Dense; return c },                  // awkward pool on the forced dense engine
				func(c Config) Config { c.Workers, c.Engine = 8, radio.Dense; return c },                  // oversubscribed pool on the forced dense engine
				func(c Config) Config { c.Workers, c.Engine = 3, radio.Implicit; return c },               // forced implicit engine, auto where no model
			}
			for _, variant := range variants {
				cfg := variant(base)
				name := fmt.Sprintf("workers=%d,rowworkers=%d,engine=%s", cfg.Workers, cfg.RowWorkers, cfg.Engine)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					got := runAll(t, cfg)
					if !bytes.Equal(got, want) {
						t.Fatalf("%v suite output diverged from the %v golden at %s (%d vs %d bytes)", dc, dc, name, len(got), len(want))
					}
				})
			}
		})
	}
	for _, dc := range radio.DrawContracts()[1:] {
		g := dc.GoldenFile()
		if seen[g] {
			t.Fatalf("golden file %q shared between contracts", g)
		}
		seen[g] = true
	}
}

// TestGoldenCorrelatedNoise pins the E20 extra (which never runs under
// `-exp all`, so the full-suite goldens don't cover it) to its own golden
// across scheduling/engine variants. Every row of E20 pins its own draw
// contract, so unlike the suite goldens there is exactly one universe.
//
// Regenerate (only on a deliberate semantic change):
//
//	go run ./cmd/noisysim -exp E20 -quick -json -seed 1 > internal/experiments/testdata/golden_correlated.json
func TestGoldenCorrelatedNoise(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_correlated.json")
	if err != nil {
		t.Fatal(err)
	}
	configs := []Config{
		{Quick: true, Seed: 1},
		{Quick: true, Seed: 1, Workers: 1, RowWorkers: 1},
		{Quick: true, Seed: 1, Workers: 8, Engine: radio.Sparse},
		{Quick: true, Seed: 1, Workers: 2, Engine: radio.Dense},
		{Quick: true, Seed: 1, Workers: 3},
		{Quick: true, Seed: 1, Workers: 8, Engine: radio.Implicit},
	}
	for _, cfg := range configs {
		cfg := cfg
		name := fmt.Sprintf("workers=%d,rowworkers=%d,engine=%s", cfg.Workers, cfg.RowWorkers, cfg.Engine)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tbl, err := E20CorrelatedNoise(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := encodeTables(t, []Table{tbl})
			if !bytes.Equal(got, want) {
				t.Fatalf("E20 output diverged from golden at %s (%d vs %d bytes)", name, len(got), len(want))
			}
		})
	}
}
