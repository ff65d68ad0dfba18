// Package experiments regenerates every quantitative claim of the paper as
// a table: round-complexity scaling of the three single-message algorithms
// (E1–E5), coded multi-message throughput (E6), the star and worst-case
// topology coding gaps (E7–E13), the sender-fault transformations
// (E14–E15), the single-link gaps (E16–E18), the structural figures
// (F1–F2), and two design ablations (A1–A2).
//
// Each experiment is a pure function of its Config (trials, seed, sweep
// size), so tables are reproducible bit-for-bit. EXPERIMENTS.md records one
// run of each alongside the paper's claim.
package experiments

import (
	"fmt"
	"strings"

	"noisyradio/internal/radio"
	"noisyradio/internal/sim"
)

// Config controls an experiment run.
type Config struct {
	// Trials is the Monte-Carlo repetition count per table row; 0 selects
	// the experiment's default.
	Trials int
	// Workers is the size of the shared worker pool every row of a table
	// runs on; 0 selects GOMAXPROCS.
	Workers int
	// RowWorkers bounds how many table rows may be in flight at once on
	// that pool; 0 admits every row immediately. Purely a scheduling and
	// memory knob: tables are bit-identical at every setting.
	RowWorkers int
	// Seed makes the whole table deterministic.
	Seed uint64
	// Quick shrinks sweeps and trial counts for use in tests.
	Quick bool
	// Engine selects the radio execution engine for every network the
	// experiment builds (radio.Auto, the zero value, picks per graph).
	// Results are bit-identical across engines; this is a speed knob.
	Engine radio.Engine
	// TrialBatch selects nothing: every trial runs scalar.
	//
	// Deprecated: trials no longer run in lockstep batches.
	TrialBatch int
	// Draw selects the fault-draw contract version for every noisy network
	// the experiment builds. Unlike Engine this is NOT a pure speed knob: each version is its own deterministic universe (bit-stable
	// within the version, different draws across versions), so tables under
	// radio.DrawV2 are compared against their own goldens, never v1's.
	Draw radio.DrawContract
	// Burst carries the Gilbert–Elliott parameters used when Draw is
	// radio.DrawV3 (zero fields select the radio defaults); Jam carries the
	// region-jamming parameters used when Draw is radio.DrawV4. Both are
	// ignored under other contracts, exactly as in radio.Config.
	Burst radio.BurstParams
	Jam   radio.JamParams
}

// newSweep builds the shared row/trial scheduler for one table. Every
// runner registers all of its rows up front and then runs the sweep once,
// so trial- and row-level parallelism share one worker pool.
func (c Config) newSweep() *sim.Sweep {
	return sim.NewSweep(sim.SweepConfig{Workers: c.Workers, RowWorkers: c.RowWorkers})
}

// noise builds the radio.Config for one fault environment of this run,
// carrying the run's engine selection and draw contract along.
func (c Config) noise(m radio.FaultModel, p float64) radio.Config {
	return radio.Config{Fault: m, P: p, Engine: c.Engine, Draw: c.Draw, Burst: c.Burst, Jam: c.Jam}
}

func (c Config) trials(def, quick int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return quick
	}
	return def
}

// Table is a formatted experiment result.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Claim   string     `json:"claim"` // the paper's statement being reproduced
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes"` // fits, measured gaps, pass/fail commentary
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns, suitable for terminals
// and for pasting into EXPERIMENTS.md.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner produces one experiment table.
type Runner func(cfg Config) (Table, error)

// Entry describes a registered experiment.
type Entry struct {
	ID    string
	Title string
	Run   Runner
}

// Registry lists every experiment in DESIGN.md order.
func Registry() []Entry {
	return []Entry{
		{ID: "E1", Title: "Decay faultless round complexity (Lemma 6)", Run: E1DecayFaultless},
		{ID: "E2", Title: "FASTBC faultless diameter-linearity (Lemma 8)", Run: E2FASTBCFaultless},
		{ID: "E3", Title: "Decay robustness to noise (Lemma 9)", Run: E3DecayNoisy},
		{ID: "E4", Title: "FASTBC wave deterioration (Lemma 10)", Run: E4FASTBCWave},
		{ID: "E5", Title: "Robust FASTBC under noise (Theorem 11)", Run: E5RobustFASTBC},
		{ID: "E6", Title: "RLNC multi-message throughput (Lemmas 12-13)", Run: E6RLNCThroughput},
		{ID: "E7", Title: "Star adaptive routing (Lemma 15)", Run: E7StarRouting},
		{ID: "E8", Title: "Star coding (Lemma 16)", Run: E8StarCoding},
		{ID: "E9", Title: "Star coding gap (Theorem 17)", Run: E9StarGap},
		{ID: "E10", Title: "WCT collision-free ceiling (Lemma 18)", Run: E10WCTCollisionFree},
		{ID: "E11", Title: "WCT adaptive routing (Lemmas 19/21/22)", Run: E11WCTRouting},
		{ID: "E12", Title: "WCT coding (Lemma 23)", Run: E12WCTCoding},
		{ID: "E13", Title: "Worst-case topology gap (Theorem 24)", Run: E13WorstCaseGap},
		{ID: "E14", Title: "Sender-fault routing transformation (Lemma 25)", Run: E14SenderTransformRouting},
		{ID: "E15", Title: "Sender-fault coding transformation (Lemma 26)", Run: E15SenderTransformCoding},
		{ID: "E16", Title: "Single-link non-adaptive routing (Lemma 29)", Run: E16SingleLinkNonAdaptive},
		{ID: "E17", Title: "Single-link coding and adaptive routing (Lemmas 30/32)", Run: E17SingleLinkAdaptive},
		{ID: "E18", Title: "Single-link gaps (Lemmas 31/33)", Run: E18SingleLinkGap},
		{ID: "E19", Title: "Pipelined batch routing on layered networks (Lemmas 20-21)", Run: E19PipelinedBatchRouting},
		{ID: "F1", Title: "GBST construction (Figure 1)", Run: F1GBST},
		{ID: "F2", Title: "WCT construction (Figure 2)", Run: F2WCT},
		{ID: "A1", Title: "Ablation: Robust FASTBC block size", Run: A1BlockSizeAblation},
		{ID: "A2", Title: "Ablation: repetition vs block waves", Run: A2RepetitionAblation},
		{ID: "A3", Title: "Ablation: Decay without knowing n", Run: A3UnknownNDecay},
	}
}

// Extras lists experiments that are NOT part of the paper-claim suite and
// therefore not included in `all` runs: robustness studies of this
// reproduction's own machinery. Keeping them out of Registry keeps the
// full-suite goldens (one per draw contract) stable as extras accrue;
// extras ship their own goldens instead.
func Extras() []Entry {
	return []Entry{
		{ID: "E20", Title: "Correlated noise: Gilbert-Elliott bursts and region jamming", Run: E20CorrelatedNoise},
	}
}

// Lookup returns the registered experiment with the given id, searching
// the paper-claim registry first and the extras second.
func Lookup(id string) (Entry, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	for _, e := range Extras() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Entry{}, false
}

// f formats a float compactly for table cells.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// d formats an int for table cells.
func d(v int) string { return fmt.Sprintf("%d", v) }
