package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"noisyradio/internal/experiments"
	"noisyradio/internal/sim"
)

// goldenQuick is the committed output of the quick suite at seed 1.
const goldenQuick = "internal/experiments/testdata/golden_quick.json"

// tableMetrics are the tables reported on their own in the traced run:
// the ones that dominate the suite's wall clock. The rest are summed.
var tableMetrics = []string{"E1", "E2", "E5", "E13", "A1", "A3"}

// paperSuite is the full, non-quick experiment suite: every table of
// experiments.Registry, as `noisysim -exp all` produces them.
type paperSuite struct {
	cfg experiments.Config
}

// setupPaperSuite checks that the quick suite at seed 1 still reproduces
// its golden byte for byte, which also warms every code path the suite
// runs.
func setupPaperSuite(seed uint64, root string) (instance, error) {
	want, err := os.ReadFile(filepath.Join(root, goldenQuick))
	if err != nil {
		return nil, err
	}
	tables := make([]experiments.Table, 0, len(experiments.Registry()))
	for _, e := range experiments.Registry() {
		tbl, err := e.Run(experiments.Config{Quick: true, Seed: 1, TrialBatch: sim.TrialBatchAuto})
		if err != nil {
			return nil, fmt.Errorf("quick %s: %w", e.ID, err)
		}
		tables = append(tables, tbl)
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tables); err != nil {
		return nil, err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return nil, fmt.Errorf("quick suite at seed 1 differs from %s", goldenQuick)
	}
	return &paperSuite{cfg: experiments.Config{
		Seed:       seed,
		Workers:    runtime.GOMAXPROCS(0),
		TrialBatch: sim.TrialBatchAuto,
	}}, nil
}

func (p *paperSuite) units() []unit {
	var out []unit
	for _, e := range experiments.Registry() {
		out = append(out, unit{name: e.ID, run: func(tr *tracer, parent int64) (outcome, error) {
			trials0, plans0 := sim.TotalTrials(), planCounts()
			sp := tr.start("experiments.table", parent)
			tbl, err := e.Run(p.cfg)
			sp.end(map[string]any{"id": e.ID, "rows": len(tbl.Rows)})
			if err != nil {
				return outcome{}, err
			}
			b, err := json.Marshal(tbl)
			if err != nil {
				return outcome{}, err
			}
			sum := sha256.Sum256(b)
			counts, _ := simCounts(trials0, plans0)
			counts["experiments.tables"] = 1
			return outcome{fingerprint: hex.EncodeToString(sum[:]), counts: counts}, nil
		}})
	}
	return out
}

func (p *paperSuite) extras(ph *phase) ([]metric, error) {
	if ph.tr == nil {
		return nil, nil
	}
	perTable := map[string][]float64{}
	for _, s := range named(ph.tr.snapshot(), "experiments.table") {
		id := s.Attrs["id"].(string)
		perTable[id] = append(perTable[id], float64(s.dur())/1e9)
	}
	var out []metric
	rest := 0.0
	for _, e := range experiments.Registry() {
		rest += median(perTable[e.ID])
	}
	for _, id := range tableMetrics {
		v := median(perTable[id])
		rest -= v
		out = append(out, metric{Name: "experiments.table_s." + id, Value: v, Unit: "s", Samples: len(perTable[id])})
	}
	return append(out, metric{Name: "experiments.table_s.rest", Value: rest, Unit: "s"}), nil
}

func (p *paperSuite) verify() error { return nil }
