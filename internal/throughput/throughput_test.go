package throughput

import (
	"errors"
	"math"
	"strings"
	"testing"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
	"noisyradio/internal/sim"
)

// deferFake registers a Pending whose trials return run's outcome, mapped
// to the row exactly as DeferSchedule maps a schedule's — so tests can
// drive the estimator with hand-made successes, failures and errors.
func deferFake(sw *sim.Sweep, k, trials int, seed uint64, run func(r *rng.Stream) (broadcast.Outcome, error)) *Pending {
	row := sw.Add(trials, seed, func(_ int, r *rng.Stream) (float64, error) {
		out, err := run(r)
		if err != nil {
			return 0, err
		}
		return out.RoundsOrNaN()
	})
	return &Pending{k: k, trials: trials, row: row}
}

// estimateOne resolves one deferred measurement on its own sweep. The
// sweep's error is the first failing row's, which Estimate reports too.
func estimateOne(workers int, add func(sw *sim.Sweep) *Pending) (Estimate, error) {
	sw := sim.NewSweep(sim.SweepConfig{Workers: workers})
	p := add(sw)
	_ = sw.Run()
	return p.Estimate()
}

func TestEstimateSingleLinkAdaptive(t *testing.T) {
	const k = 100
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	est, err := estimateOne(4, func(sw *sim.Sweep) *Pending {
		return DeferSchedule(sw, broadcast.MustSchedule("single-link-adaptive"), graph.Topology{}, cfg, broadcast.ScheduleParams{K: k}, 40, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.SuccessRate != 1 {
		t.Fatalf("success rate = %v", est.SuccessRate)
	}
	// Expected mean rounds = k/(1-p) = 200 → tau ≈ 0.5.
	if math.Abs(est.Tau-0.5) > 0.05 {
		t.Fatalf("tau = %v, want ~0.5", est.Tau)
	}
	if est.MeanRounds < 150 || est.MeanRounds > 250 {
		t.Fatalf("mean rounds = %v", est.MeanRounds)
	}
	if est.RoundsCI95 <= 0 {
		t.Fatal("CI should be positive for stochastic rounds")
	}
}

func TestEstimateExcludesFailures(t *testing.T) {
	est, err := estimateOne(1, func(sw *sim.Sweep) *Pending {
		return deferFake(sw, 10, 10, 2, func(r *rng.Stream) (broadcast.Outcome, error) {
			if r.Bool(0.5) {
				return broadcast.Outcome{Rounds: 20, Success: true}, nil
			}
			return broadcast.Outcome{Rounds: 99, Success: false}, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.SuccessRate <= 0 || est.SuccessRate >= 1 {
		t.Fatalf("success rate = %v, want strictly between 0 and 1", est.SuccessRate)
	}
	if est.MeanRounds != 20 {
		t.Fatalf("mean rounds = %v, want 20 (failures excluded)", est.MeanRounds)
	}
}

func TestEstimateAllFailed(t *testing.T) {
	est, err := estimateOne(2, func(sw *sim.Sweep) *Pending {
		return deferFake(sw, 4, 6, 1, func(r *rng.Stream) (broadcast.Outcome, error) {
			return broadcast.Outcome{Rounds: 5, Success: false}, nil
		})
	})
	if !errors.Is(err, ErrAllTrialsFailed) {
		t.Fatalf("err = %v, want ErrAllTrialsFailed", err)
	}
	if est.SuccessRate != 0 {
		t.Fatalf("success rate = %v, want 0", est.SuccessRate)
	}
}

// TestDeferAllFailed: a row whose every trial fails is a result, not a
// harness error — the sweep runs clean, and Estimate reports
// ErrAllTrialsFailed with the row's k and trial count intact.
func TestDeferAllFailed(t *testing.T) {
	sw := sim.NewSweep(sim.SweepConfig{Workers: 2})
	p := deferFake(sw, 4, 6, 1, func(r *rng.Stream) (broadcast.Outcome, error) {
		return broadcast.Outcome{Rounds: 5, Success: false}, nil
	})
	if err := sw.Run(); err != nil {
		t.Fatalf("sweep reported %v for an all-failed row", err)
	}
	est, err := p.Estimate()
	if !errors.Is(err, ErrAllTrialsFailed) {
		t.Fatalf("err = %v, want ErrAllTrialsFailed", err)
	}
	if want := (Estimate{K: 4, Trials: 6}); est != want {
		t.Fatalf("estimate = %+v, want %+v", est, want)
	}
}

func TestEstimatePropagatesTrialError(t *testing.T) {
	sentinel := errors.New("runner broke")
	_, err := estimateOne(1, func(sw *sim.Sweep) *Pending {
		return deferFake(sw, 5, 5, 4, func(r *rng.Stream) (broadcast.Outcome, error) {
			return broadcast.Outcome{}, sentinel
		})
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestGapSingleLink(t *testing.T) {
	// Non-adaptive routing vs coding on the single link at p=1/2: the gap
	// should be roughly repeats/(1/(1-p)) = repeats/2 (Lemma 31's Θ(log k)).
	const k = 128
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	repeats := broadcast.DefaultSingleLinkRepeats(k, cfg.P)
	sw := sim.NewSweep(sim.SweepConfig{Workers: 4})
	pg := DeferGapSchedule(sw, broadcast.MustSchedule("single-link-coding"), broadcast.MustSchedule("single-link-nonadaptive"),
		graph.Topology{}, cfg, broadcast.ScheduleParams{K: k}, broadcast.ScheduleParams{K: k, Repeats: repeats}, 30, 5)
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	gap, err := pg.Gap()
	if err != nil {
		t.Fatal(err)
	}
	want := float64(repeats) / 2
	if gap.Ratio < want*0.7 || gap.Ratio > want*1.3 {
		t.Fatalf("gap ratio = %.2f, want ~%.2f", gap.Ratio, want)
	}
}

func TestGapNamesFailedSide(t *testing.T) {
	ok := func(r *rng.Stream) (broadcast.Outcome, error) {
		return broadcast.Outcome{Rounds: 10, Success: true}, nil
	}
	bad := func(r *rng.Stream) (broadcast.Outcome, error) {
		return broadcast.Outcome{}, errors.New("nope")
	}
	for _, tc := range []struct {
		side            string
		coding, routing func(r *rng.Stream) (broadcast.Outcome, error)
	}{
		{"coding side", bad, ok},
		{"routing side", ok, bad},
	} {
		sw := sim.NewSweep(sim.SweepConfig{Workers: 1})
		pg := &PendingGap{coding: deferFake(sw, 5, 3, 6, tc.coding), routing: deferFake(sw, 5, 3, 7, tc.routing)}
		if err := sw.Run(); err == nil {
			t.Fatalf("%s: sweep swallowed the trial error", tc.side)
		}
		if _, err := pg.Gap(); err == nil || !strings.Contains(err.Error(), tc.side) {
			t.Fatalf("Gap error = %v, want it to name the %s", err, tc.side)
		}
	}
}

// TestDeferScheduleSameAtEveryPlan: a schedule-registry measurement
// resolves to the same Estimate as a hand-written per-trial row over the
// same schedule, at every execution plan — worker count, chunk size and
// engine — and whether it has a sweep to itself or shares one with other
// rows.
func TestDeferScheduleSameAtEveryPlan(t *testing.T) {
	const trials = 18
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	sched := broadcast.MustSchedule("star-coding")
	ks := []int{4, 16}
	want := make([]Estimate, len(ks))
	for i, k := range ks {
		p := broadcast.ScheduleParams{Leaves: 20, K: k}
		est, err := estimateOne(2, func(sw *sim.Sweep) *Pending {
			return deferFake(sw, k, trials, uint64(11+i), func(r *rng.Stream) (broadcast.Outcome, error) {
				return sched.Run(graph.Topology{}, cfg, r, p)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = est
	}
	for _, plan := range []sim.SweepConfig{{Workers: 3, RowWorkers: 2}, {Workers: 1, ChunkSize: 1}, {Workers: 2, ChunkSize: 5}} {
		for _, eng := range []radio.Engine{radio.Auto, radio.Dense} {
			ecfg := cfg
			ecfg.Engine = eng
			sw := sim.NewSweep(plan)
			pending := make([]*Pending, len(ks))
			for i, k := range ks {
				pending[i] = DeferSchedule(sw, sched, graph.Topology{}, ecfg, broadcast.ScheduleParams{Leaves: 20, K: k}, trials, uint64(11+i))
			}
			if err := sw.Run(); err != nil {
				t.Fatal(err)
			}
			for i, k := range ks {
				got, err := pending[i].Estimate()
				if err != nil {
					t.Fatal(err)
				}
				if got != want[i] {
					t.Fatalf("%+v, %v, k=%d: schedule estimate %+v != per-trial row estimate %+v", plan, eng, k, got, want[i])
				}
			}
		}
	}
}

// TestDeferGapSchedulePairsSeeds: the gap's coding side runs at seed and
// its routing side at seed+1.
func TestDeferGapSchedulePairsSeeds(t *testing.T) {
	const k, trials, seed = 32, 12, 21
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	coding := broadcast.MustSchedule("single-link-coding")
	routing := broadcast.MustSchedule("single-link-adaptive")
	kp := broadcast.ScheduleParams{K: k}
	side := func(sched *broadcast.Schedule, seed uint64) Estimate {
		est, err := estimateOne(2, func(sw *sim.Sweep) *Pending {
			return DeferSchedule(sw, sched, graph.Topology{}, cfg, kp, trials, seed)
		})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	wantC, wantR := side(coding, seed), side(routing, seed+1)
	sw := sim.NewSweep(sim.SweepConfig{Workers: 4})
	pg := DeferGapSchedule(sw, coding, routing, graph.Topology{}, cfg, kp, kp, trials, seed)
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := pg.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if got.Coding != wantC || got.Routing != wantR {
		t.Fatalf("gap sides %+v / %+v, want %+v / %+v", got.Coding, got.Routing, wantC, wantR)
	}
}

// TestDeferScheduleSharedSweepMatchesStandalone: rows of different
// schedules and k deferred onto one row-parallel sweep each resolve to the
// Estimate they get on a sweep of their own — the contract the experiment
// runners rely on when they batch a table's rows.
func TestDeferScheduleSharedSweepMatchesStandalone(t *testing.T) {
	const trials = 30
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	rows := []struct {
		sched string
		k     int
	}{
		{"single-link-adaptive", 8},
		{"single-link-adaptive", 32},
		{"single-link-adaptive", 128},
		{"single-link-coding", 32},
	}
	want := make([]Estimate, len(rows))
	for i, row := range rows {
		est, err := estimateOne(4, func(sw *sim.Sweep) *Pending {
			return DeferSchedule(sw, broadcast.MustSchedule(row.sched), graph.Topology{}, cfg, broadcast.ScheduleParams{K: row.k}, trials, uint64(50+i))
		})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = est
	}
	sw := sim.NewSweep(sim.SweepConfig{Workers: 8, RowWorkers: 2})
	pending := make([]*Pending, len(rows))
	for i, row := range rows {
		pending[i] = DeferSchedule(sw, broadcast.MustSchedule(row.sched), graph.Topology{}, cfg, broadcast.ScheduleParams{K: row.k}, trials, uint64(50+i))
	}
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		got, err := pending[i].Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("%s k=%d: shared-sweep %+v != standalone %+v", row.sched, row.k, got, want[i])
		}
	}
}

// TestDeferGapScheduleMatchesStandaloneSides: each side of a deferred gap
// runs under its own params — here the routing side's repetition count —
// and the gap is exactly the two standalone estimates and the ratio of
// their throughputs.
func TestDeferGapScheduleMatchesStandaloneSides(t *testing.T) {
	const k, trials, seed = 64, 20, 9
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	coding := broadcast.MustSchedule("single-link-coding")
	routing := broadcast.MustSchedule("single-link-nonadaptive")
	codingP := broadcast.ScheduleParams{K: k}
	routingP := broadcast.ScheduleParams{K: k, Repeats: broadcast.DefaultSingleLinkRepeats(k, cfg.P) + 3}
	side := func(sched *broadcast.Schedule, p broadcast.ScheduleParams, seed uint64) Estimate {
		est, err := estimateOne(2, func(sw *sim.Sweep) *Pending {
			return DeferSchedule(sw, sched, graph.Topology{}, cfg, p, trials, seed)
		})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	c, r := side(coding, codingP, seed), side(routing, routingP, seed+1)
	want := Gap{Coding: c, Routing: r, Ratio: c.Tau / r.Tau}
	sw := sim.NewSweep(sim.SweepConfig{Workers: 8})
	pg := DeferGapSchedule(sw, coding, routing, graph.Topology{}, cfg, codingP, routingP, trials, seed)
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := pg.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("deferred gap %+v != standalone %+v", got, want)
	}
}

func TestDeferSchedulePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DeferSchedule(K=0) did not panic")
		}
	}()
	sched, err := broadcast.LookupSchedule("star-coding")
	if err != nil {
		t.Fatal(err)
	}
	DeferSchedule(sim.NewSweep(sim.SweepConfig{}), sched, graph.Topology{}, radio.Config{Fault: radio.Faultless}, broadcast.ScheduleParams{Leaves: 4}, 1, 1)
}

// TestDeferGapSchedulePanicsOnBadK: each side of a gap checks its own k.
func TestDeferGapSchedulePanicsOnBadK(t *testing.T) {
	sched := broadcast.MustSchedule("single-link-coding")
	good, bad := broadcast.ScheduleParams{K: 4}, broadcast.ScheduleParams{K: 0}
	for _, tc := range []struct {
		side              string
		codingP, routingP broadcast.ScheduleParams
	}{
		{"coding", bad, good},
		{"routing", good, bad},
	} {
		t.Run(tc.side, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("DeferGapSchedule with %s K=0 did not panic", tc.side)
				}
			}()
			DeferGapSchedule(sim.NewSweep(sim.SweepConfig{}), sched, sched, graph.Topology{}, radio.Config{Fault: radio.Faultless}, tc.codingP, tc.routingP, 1, 1)
		})
	}
}
