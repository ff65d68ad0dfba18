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
// the same row folds to bit-identical statistics whether it runs scalar,
// at any forced width, or auto-planned. The rows force the dense engine,
// so their batched plans run the lockstep twins.
func TestAddScheduleIdenticalAcrossPlans(t *testing.T) {
	top := graph.Path(48)
	ncfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense}
	const trials = 23
	baseMean, baseCI, baseN := runScheduleRow(t, SweepConfig{Workers: 1}, "decay", top, ncfg, broadcast.ScheduleParams{}, trials)
	for _, tb := range []int{0, 1, 3, 4, 8, 16, 64, TrialBatchAuto} {
		mean, ci, n := runScheduleRow(t, SweepConfig{Workers: 3, TrialBatch: tb}, "decay", top, ncfg, broadcast.ScheduleParams{}, trials)
		if mean != baseMean || ci != baseCI || n != baseN {
			t.Errorf("TrialBatch=%d: stats diverged: mean %v vs %v, ci %v vs %v, n %d vs %d",
				tb, mean, baseMean, ci, baseCI, n, baseN)
		}
	}
	// A multi-message schedule through the same entry point.
	mcfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5, Engine: radio.Dense}
	k3 := broadcast.ScheduleParams{K: 3}
	mBase, _, _ := runScheduleRow(t, SweepConfig{Workers: 1}, "pipelined-batch-routing", graph.Layered(3, 3), mcfg, k3, 9)
	for _, tb := range []int{5, TrialBatchAuto} {
		m, _, _ := runScheduleRow(t, SweepConfig{Workers: 2, TrialBatch: tb}, "pipelined-batch-routing", graph.Layered(3, 3), mcfg, k3, 9)
		if m != mBase {
			t.Errorf("pipelined-batch-routing TrialBatch=%d: mean %v vs %v", tb, m, mBase)
		}
	}
}

// TestAddScheduleAutoPlan checks the auto planner's decisions surface in
// the plan log: a dense-topology row batches at a planned width, a
// sparse-topology row stays scalar, forced widths are recorded as forced,
// and rows that RunBatch would run one trial at a time — a forced width
// on a sparse topology, a schedule without a lockstep twin — record
// width 1.
func TestAddScheduleAutoPlan(t *testing.T) {
	ResetPlanLog()
	ncfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	value := func(out broadcast.Outcome) (float64, error) { return float64(out.Rounds), nil }

	sw := NewSweep(SweepConfig{Workers: 2, TrialBatch: TrialBatchAuto})
	dense := sw.AddSchedule(mustSchedule(t, "decay"), graph.GNP(96, 0.5, rng.New(3)), ncfg, broadcast.ScheduleParams{}, 20, 3, value)
	sparse := sw.AddSchedule(mustSchedule(t, "decay"), graph.Path(32), ncfg, broadcast.ScheduleParams{}, 20, 4, value)
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if dense.width <= 1 {
		t.Errorf("dense-topology row planned width %d, want batched", dense.width)
	}
	if sparse.width > 1 {
		t.Errorf("sparse-topology row planned width %d, want scalar", sparse.width)
	}

	plans := PlanLog()
	if len(plans) != 2 {
		t.Fatalf("plan log has %d entries, want 2: %+v", len(plans), plans)
	}
	for _, p := range plans {
		if p.Schedule != "decay" || p.Trials != 20 || p.Count != 1 || p.Reason == "" {
			t.Errorf("unexpected plan entry: %+v", p)
		}
		switch p.Engine {
		case "dense":
			if p.Width <= 1 {
				t.Errorf("dense plan width %d, want batched: %+v", p.Width, p)
			}
		case "sparse":
			if p.Width != 1 {
				t.Errorf("sparse plan width %d, want 1: %+v", p.Width, p)
			}
		default:
			t.Errorf("unexpected plan engine %q", p.Engine)
		}
	}

	// Forced widths are recorded too, and identical plans aggregate.
	ResetPlanLog()
	dcfg := ncfg
	dcfg.Engine = radio.Dense
	sw2 := NewSweep(SweepConfig{Workers: 2, TrialBatch: 8})
	sw2.AddSchedule(mustSchedule(t, "decay"), graph.Path(16), dcfg, broadcast.ScheduleParams{}, 6, 5, value)
	sw2.AddSchedule(mustSchedule(t, "decay"), graph.Path(16), dcfg, broadcast.ScheduleParams{}, 6, 5, value)
	if err := sw2.Run(); err != nil {
		t.Fatal(err)
	}
	plans = PlanLog()
	if len(plans) != 1 || plans[0].Width != 8 || plans[0].Count != 2 {
		t.Fatalf("forced plan log = %+v, want one width-8 entry with count 2", plans)
	}

	// A forced width on a sparse-resolved topology, and on a schedule with
	// no lockstep twin, plans scalar.
	ResetPlanLog()
	sw3 := NewSweep(SweepConfig{Workers: 2, TrialBatch: 8})
	onSparse := sw3.AddSchedule(mustSchedule(t, "decay"), graph.Path(16), ncfg, broadcast.ScheduleParams{}, 6, 5, value)
	noTwin := sw3.AddSchedule(mustSchedule(t, "star-routing"), graph.Topology{}, dcfg, broadcast.ScheduleParams{Leaves: 10, K: 3}, 6, 5, value)
	if err := sw3.Run(); err != nil {
		t.Fatal(err)
	}
	if onSparse.width > 1 || noTwin.width > 1 {
		t.Errorf("rows that cannot run lockstep planned widths %d and %d, want scalar", onSparse.width, noTwin.width)
	}
	for _, p := range PlanLog() {
		if p.Width != 1 || p.Reason == "" {
			t.Errorf("plan %+v, want width 1 with a reason", p)
		}
	}
	ResetPlanLog()
}

// TestAddScheduleImplicitPlan: a CSR-less implicit topology flows through
// the Schedule API end to end — the planner resolves the implicit engine,
// records a scalar plan (lockstep runs on the dense engine only), and the
// row folds to the same statistics as its explicit twin under any plan.
func TestAddScheduleImplicitPlan(t *testing.T) {
	ResetPlanLog()
	ncfg := radio.Config{Fault: radio.SenderFaults, P: 0.2}
	value := func(out broadcast.Outcome) (float64, error) { return float64(out.Rounds), nil }

	sw := NewSweep(SweepConfig{Workers: 2, TrialBatch: TrialBatchAuto})
	row := sw.AddSchedule(mustSchedule(t, "decay"), graph.ImplicitComplete(96), ncfg, broadcast.ScheduleParams{}, 12, 3, value)
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if err := row.Err(); err != nil {
		t.Fatal(err)
	}
	if row.planEngine != radio.Implicit {
		t.Fatalf("plan engine = %v, want implicit", row.planEngine)
	}
	if row.width > 1 {
		t.Fatalf("implicit row planned width %d, want scalar", row.width)
	}
	plans := PlanLog()
	if len(plans) != 1 || plans[0].Engine != "implicit" || plans[0].Width != 1 || plans[0].Count != 1 {
		t.Fatalf("plan log = %+v, want one scalar implicit entry", plans)
	}
	ResetPlanLog()

	// Same row, both storage modes, any plan: bit-identical statistics.
	iMean, iCI, iN := runScheduleRow(t, SweepConfig{Workers: 1}, "decay", graph.ImplicitComplete(96), ncfg, broadcast.ScheduleParams{}, 12)
	eMean, eCI, eN := runScheduleRow(t, SweepConfig{Workers: 3, TrialBatch: TrialBatchAuto}, "decay", graph.Complete(96), ncfg, broadcast.ScheduleParams{}, 12)
	if iMean != eMean || iCI != eCI || iN != eN {
		t.Errorf("implicit row diverged from explicit twin: mean %v vs %v, ci %v vs %v, n %d vs %d",
			iMean, eMean, iCI, eCI, iN, eN)
	}
	ResetPlanLog()
}

// TestAddScheduleErrors: a schedule error (nil WCT; a source outside the
// graph) surfaces as the row error under both scalar and batched plans,
// lowest trial first.
func TestAddScheduleErrors(t *testing.T) {
	value := func(out broadcast.Outcome) (float64, error) { return float64(out.Rounds), nil }
	badSource := graph.Topology{G: graph.Complete(8).G, Source: 8, Name: "bad-source"}
	for _, tb := range []int{0, 4} {
		sw := NewSweep(SweepConfig{Workers: 2, TrialBatch: tb})
		rows := []*Row{
			sw.AddSchedule(mustSchedule(t, "wct-routing"), graph.Topology{}, radio.Config{Fault: radio.Faultless}, broadcast.ScheduleParams{K: 2}, 8, 1, value),
			sw.AddSchedule(mustSchedule(t, "decay"), badSource, radio.Config{Fault: radio.Faultless, Engine: radio.Dense}, broadcast.ScheduleParams{}, 8, 1, value),
		}
		if err := sw.Run(); err == nil {
			t.Fatalf("TrialBatch=%d: failing schedule rows succeeded", tb)
		}
		for i, row := range rows {
			if err := row.Err(); err == nil {
				t.Fatalf("TrialBatch=%d: row %d reports no error", tb, i)
			}
		}
	}
}

// TestAddScheduleSharedPlanError: a row's workers share one binding, so
// a plan that fails (no GBST spans a disconnected graph) is built once
// and fails every trial, scalar and lockstep, with the error a per-trial
// plan gave: the lowest trial's, wrapped so errors.Is still finds it.
func TestAddScheduleSharedPlanError(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	top := graph.Topology{G: b.MustBuild(), Source: 0, Name: "disconnected"}
	value := func(out broadcast.Outcome) (float64, error) { return float64(out.Rounds), nil }
	const want = "sim: trial 0: gbst: graph is not connected from the source: node 2 unreachable"
	for _, tb := range []int{0, 4} {
		sw := NewSweep(SweepConfig{Workers: 4, ChunkSize: 1, TrialBatch: tb})
		row := sw.AddSchedule(mustSchedule(t, "fastbc"), top, radio.Config{Fault: radio.Faultless, Engine: radio.Dense}, broadcast.ScheduleParams{}, 8, 1, value)
		if err := sw.Run(); err == nil || err.Error() != want {
			t.Fatalf("TrialBatch=%d: Run error %v, want %q", tb, err, want)
		}
		if err := row.Err(); !errors.Is(err, gbst.ErrDisconnected) {
			t.Fatalf("TrialBatch=%d: row error %v does not wrap gbst.ErrDisconnected", tb, err)
		}
	}
}
