package sim

import (
	"errors"
	"math"
	"testing"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/gbst"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

func mustSchedule(t *testing.T, name string) *broadcast.Schedule {
	t.Helper()
	s, err := broadcast.LookupSchedule(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runScheduleRow runs one AddSchedule row to completion under the given
// sweep configuration and returns its folded statistics.
func runScheduleRow(t *testing.T, cfg SweepConfig, name string, top graph.Topology, ncfg radio.Config, p broadcast.ScheduleParams, trials int) (mean, ci float64, n int) {
	t.Helper()
	sw := NewSweep(cfg)
	row := sw.AddSchedule(mustSchedule(t, name), top, ncfg, p, trials, 7, func(out broadcast.Outcome) (float64, error) {
		if !out.Success {
			return math.NaN(), nil
		}
		return float64(out.Rounds), nil
	})
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if err := row.Err(); err != nil {
		t.Fatal(err)
	}
	return row.Mean(), row.CI95(), row.Acc().N()
}

// TestAddScheduleIdenticalAcrossPlans is the Schedule API's core promise:
// the same row folds to bit-identical statistics at every worker count,
// chunk size and engine.
func TestAddScheduleIdenticalAcrossPlans(t *testing.T) {
	top := graph.Path(48)
	ncfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense}
	const trials = 23
	baseMean, baseCI, baseN := runScheduleRow(t, SweepConfig{Workers: 1}, "decay", top, ncfg, broadcast.ScheduleParams{}, trials)
	for _, eng := range []radio.Engine{radio.Auto, radio.Sparse, radio.Dense} {
		for _, cfg := range []SweepConfig{{Workers: 3}, {Workers: 2, ChunkSize: 1}, {Workers: 3, ChunkSize: 5}} {
			ecfg := ncfg
			ecfg.Engine = eng
			mean, ci, n := runScheduleRow(t, cfg, "decay", top, ecfg, broadcast.ScheduleParams{}, trials)
			if mean != baseMean || ci != baseCI || n != baseN {
				t.Errorf("%v, %+v: stats diverged: mean %v vs %v, ci %v vs %v, n %d vs %d",
					eng, cfg, mean, baseMean, ci, baseCI, n, baseN)
			}
		}
	}
	// A multi-message schedule through the same entry point.
	mcfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5, Engine: radio.Dense}
	k3 := broadcast.ScheduleParams{K: 3}
	mBase, _, _ := runScheduleRow(t, SweepConfig{Workers: 1}, "pipelined-batch-routing", graph.Layered(3, 3), mcfg, k3, 9)
	for _, eng := range []radio.Engine{radio.Auto, radio.Sparse} {
		ecfg := mcfg
		ecfg.Engine = eng
		m, _, _ := runScheduleRow(t, SweepConfig{Workers: 2, ChunkSize: 2}, "pipelined-batch-routing", graph.Layered(3, 3), ecfg, k3, 9)
		if m != mBase {
			t.Errorf("pipelined-batch-routing on %v: mean %v vs %v", eng, m, mBase)
		}
	}
}

// TestAddScheduleAutoPlan: every schedule row records exactly one plan in
// the plan log, with the engine its topology resolves to and width 1, on
// every engine; identical plans aggregate. Under Auto a dense G(n, p) row
// plans sparse, so the dense row forces its engine.
func TestAddScheduleAutoPlan(t *testing.T) {
	ResetPlanLog()
	ncfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	dcfg := ncfg
	dcfg.Engine = radio.Dense
	value := func(out broadcast.Outcome) (float64, error) { return float64(out.Rounds), nil }

	gnp := graph.GNP(96, 0.5, rng.New(3))
	if got := ncfg.ResolveEngine(gnp.G); got != radio.Sparse {
		t.Fatalf("%s resolves %v under auto, want sparse", gnp.Name, got)
	}
	sw := NewSweep(SweepConfig{Workers: 2})
	rows := map[string]*Row{
		"dense":    sw.AddSchedule(mustSchedule(t, "decay"), gnp, dcfg, broadcast.ScheduleParams{}, 20, 3, value),
		"sparse":   sw.AddSchedule(mustSchedule(t, "decay"), graph.Path(32), ncfg, broadcast.ScheduleParams{}, 20, 4, value),
		"implicit": sw.AddSchedule(mustSchedule(t, "decay"), graph.Complete(96), ncfg, broadcast.ScheduleParams{}, 20, 5, value),
	}
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	for engine, row := range rows {
		if got := row.planEngine.String(); got != engine {
			t.Errorf("%s row resolved the %s engine", engine, got)
		}
	}
	plans := PlanLog()
	if len(plans) != 3 {
		t.Fatalf("plan log has %d entries, want 3: %+v", len(plans), plans)
	}
	for _, p := range plans {
		if p.Schedule != "decay" || p.Trials != 20 || p.Count != 1 || p.Width != 1 || p.Reason == "" || rows[p.Engine] == nil {
			t.Errorf("unexpected plan entry: %+v", p)
		}
	}

	// Forced engines are recorded as resolved, and identical plans
	// aggregate: two dense rows and a star row planned on the dense
	// engine.
	ResetPlanLog()
	sw2 := NewSweep(SweepConfig{Workers: 2})
	sw2.AddSchedule(mustSchedule(t, "decay"), graph.Path(16), dcfg, broadcast.ScheduleParams{}, 6, 5, value)
	sw2.AddSchedule(mustSchedule(t, "decay"), graph.Path(16), dcfg, broadcast.ScheduleParams{}, 6, 5, value)
	sw2.AddSchedule(mustSchedule(t, "star-routing"), graph.Topology{}, dcfg, broadcast.ScheduleParams{Leaves: 10, K: 3}, 6, 5, value)
	if err := sw2.Run(); err != nil {
		t.Fatal(err)
	}
	plans = PlanLog()
	if len(plans) != 2 {
		t.Fatalf("forced plan log = %+v, want two entries", plans)
	}
	for _, p := range plans {
		want := 1
		if p.Schedule == "decay" {
			want = 2
		}
		if p.Engine != "dense" || p.Width != 1 || p.Count != want {
			t.Errorf("forced plan %+v, want engine dense, width 1 and count %d", p, want)
		}
	}
	ResetPlanLog()
}

// TestAddScheduleImplicitPlan: the complete graph, which stores no
// adjacency, flows through the Schedule API end to end — the row resolves
// the implicit engine, records its plan, and folds to the same statistics
// as G(96, 1), the complete graph stored as CSR, on the sparse engine that
// Auto picks for it and on the forced dense engine, at any worker count.
func TestAddScheduleImplicitPlan(t *testing.T) {
	ResetPlanLog()
	ncfg := radio.Config{Fault: radio.SenderFaults, P: 0.2}
	value := func(out broadcast.Outcome) (float64, error) { return float64(out.Rounds), nil }

	sw := NewSweep(SweepConfig{Workers: 2})
	row := sw.AddSchedule(mustSchedule(t, "decay"), graph.Complete(96), ncfg, broadcast.ScheduleParams{}, 12, 3, value)
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if err := row.Err(); err != nil {
		t.Fatal(err)
	}
	if row.planEngine != radio.Implicit {
		t.Fatalf("plan engine = %v, want implicit", row.planEngine)
	}
	plans := PlanLog()
	if len(plans) != 1 || plans[0].Engine != "implicit" || plans[0].Width != 1 || plans[0].Count != 1 {
		t.Fatalf("plan log = %+v, want one width-1 implicit entry", plans)
	}
	ResetPlanLog()

	// Same row, both storage modes: bit-identical statistics.
	csr := graph.GNP(96, 1, rng.New(1))
	if got := ncfg.ResolveEngine(csr.G); got != radio.Sparse {
		t.Fatalf("G(96, 1) resolves %v, want sparse", got)
	}
	iMean, iCI, iN := runScheduleRow(t, SweepConfig{Workers: 1}, "decay", graph.Complete(96), ncfg, broadcast.ScheduleParams{}, 12)
	for _, eng := range []radio.Engine{radio.Auto, radio.Dense} {
		ecfg := ncfg
		ecfg.Engine = eng
		eMean, eCI, eN := runScheduleRow(t, SweepConfig{Workers: 3}, "decay", csr, ecfg, broadcast.ScheduleParams{}, 12)
		if iMean != eMean || iCI != eCI || iN != eN {
			t.Errorf("implicit row diverged from explicit twin on %v: mean %v vs %v, ci %v vs %v, n %d vs %d",
				eng, iMean, eMean, iCI, eCI, iN, eN)
		}
	}
	ResetPlanLog()
}

// TestAddScheduleErrors: a schedule error (nil WCT; a source outside the
// graph) surfaces as the row error, lowest trial first, at every chunk
// size.
func TestAddScheduleErrors(t *testing.T) {
	value := func(out broadcast.Outcome) (float64, error) { return float64(out.Rounds), nil }
	badSource := graph.Topology{G: graph.GNP(8, 1, rng.New(1)).G, Source: 8, Name: "bad-source"}
	for _, chunk := range []int{0, 1} {
		sw := NewSweep(SweepConfig{Workers: 2, ChunkSize: chunk})
		rows := []*Row{
			sw.AddSchedule(mustSchedule(t, "wct-routing"), graph.Topology{}, radio.Config{Fault: radio.Faultless}, broadcast.ScheduleParams{K: 2}, 8, 1, value),
			sw.AddSchedule(mustSchedule(t, "decay"), badSource, radio.Config{Fault: radio.Faultless, Engine: radio.Dense}, broadcast.ScheduleParams{}, 8, 1, value),
		}
		if err := sw.Run(); err == nil {
			t.Fatalf("ChunkSize=%d: failing schedule rows succeeded", chunk)
		}
		for i, row := range rows {
			if err := row.Err(); err == nil {
				t.Fatalf("ChunkSize=%d: row %d reports no error", chunk, i)
			}
		}
	}
}

// TestAddScheduleSharedPlanError: a row's workers share one binding, so
// a plan that fails (no GBST spans a disconnected graph) is built once
// and fails every trial, on every engine, with the error a per-trial plan
// gave: the lowest trial's, wrapped so errors.Is still finds it.
func TestAddScheduleSharedPlanError(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	top := graph.Topology{G: b.MustBuild(), Source: 0, Name: "disconnected"}
	value := func(out broadcast.Outcome) (float64, error) { return float64(out.Rounds), nil }
	const want = "sim: trial 0: gbst: graph is not connected from the source: node 2 unreachable"
	for _, eng := range []radio.Engine{radio.Sparse, radio.Dense} {
		sw := NewSweep(SweepConfig{Workers: 4, ChunkSize: 1})
		row := sw.AddSchedule(mustSchedule(t, "fastbc"), top, radio.Config{Fault: radio.Faultless, Engine: eng}, broadcast.ScheduleParams{}, 8, 1, value)
		if err := sw.Run(); err == nil || err.Error() != want {
			t.Fatalf("%v: Run error %v, want %q", eng, err, want)
		}
		if err := row.Err(); !errors.Is(err, gbst.ErrDisconnected) {
			t.Fatalf("%v: row error %v does not wrap gbst.ErrDisconnected", eng, err)
		}
	}
}
