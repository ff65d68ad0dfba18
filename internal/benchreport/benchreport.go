// Package benchreport defines the machine-readable performance record
// shared by its producer (`noisysim -benchjson`) and consumer
// (`benchgate`), so the two binaries cannot drift apart on field names.
package benchreport

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Report is one suite run's performance record.
type Report struct {
	Suite          string       `json:"suite"`
	Quick          bool         `json:"quick"`
	Engine         string       `json:"engine"`
	DrawContract   string       `json:"drawcontract,omitempty"`
	Seed           uint64       `json:"seed"`
	Workers        int          `json:"workers"`
	RowWorkers     int          `json:"rowworkers"`
	GoMaxProcs     int          `json:"gomaxprocs"`
	WallSeconds    float64      `json:"wall_seconds"`
	Tables         int          `json:"tables"`
	Rows           int          `json:"rows"`
	RowsPerSec     float64      `json:"rows_per_sec"`
	Trials         int64        `json:"trials"`
	AllocsPerTrial float64      `json:"allocs_per_trial"`
	BytesPerTrial  float64      `json:"bytes_per_trial"`
	Experiments    []ExpSeconds `json:"experiments"`
	Microbench     []Microbench `json:"microbench,omitempty"`
	Plans          []Plan       `json:"plans,omitempty"`
}

// Plan is one distinct execution plan the sweep scheduler chose for a
// schedule row during the run: the resolved radio engine and the
// planner's reason, with Count aggregating rows that received the
// identical plan. Recorded so the engine choices are inspectable in the
// BENCH_sweep.json artifact.
type Plan struct {
	Schedule string `json:"schedule"`
	Engine   string `json:"engine"`
	Draw     string `json:"draw,omitempty"`
	Trials   int    `json:"trials"`
	// Width is always 1: every trial runs scalar.
	//
	// Deprecated: trials no longer run in lockstep batches.
	Width  int    `json:"width"`
	Reason string `json:"reason"`
	Count  int    `json:"count,omitempty"`
}

// ExpSeconds is one experiment's contribution to a Report.
type ExpSeconds struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
	Rows    int     `json:"rows"`
}

// Microbench is one engine microbenchmark's contribution to a Report:
// the per-round cost of a radio engine under a fixed schedule. Unlike
// suite wall clock (which mixes scheduling, coding and statistics),
// these isolate the round hot path, so the gate catches per-round
// regressions that a fast suite would hide.
type Microbench struct {
	Name           string  `json:"name"`
	NsPerRound     float64 `json:"ns_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
}

// Write encodes r as indented JSON to w.
func (r Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Load reads a Report from the JSON file at path.
func Load(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
