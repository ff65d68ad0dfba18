package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
	"noisyradio/internal/stats"
)

// scheduleCase binds one registry entry to a small but non-trivial
// workload, mirroring the broadcast package's schedule test cases.
type scheduleCase struct {
	top graph.Topology
	cfg radio.Config
	p   broadcast.ScheduleParams
}

func scheduleCases() map[string]scheduleCase {
	recv := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	half := radio.Config{Fault: radio.ReceiverFaults, P: 0.45}
	send := radio.Config{Fault: radio.SenderFaults, P: 0.3}
	path := graph.Path(24)
	w := graph.NewWCT(graph.DefaultWCTParams(80), rng.New(7))
	return map[string]scheduleCase{
		"decay":                    {top: path, cfg: recv},
		"decay-unknown-n":          {top: path, cfg: recv},
		"fastbc":                   {top: path, cfg: recv},
		"robust-fastbc":            {top: path, cfg: recv},
		"rlnc":                     {top: graph.Grid(4, 4), cfg: recv, p: broadcast.ScheduleParams{K: 3}},
		"sequential-decay-routing": {top: graph.Path(12), cfg: recv, p: broadcast.ScheduleParams{K: 2}},
		"star-routing":             {cfg: half, p: broadcast.ScheduleParams{Leaves: 12, K: 4}},
		"star-coding":              {cfg: half, p: broadcast.ScheduleParams{Leaves: 12, K: 4}},
		"wct-routing":              {cfg: half, p: broadcast.ScheduleParams{WCT: w, K: 3}},
		"wct-coding":               {cfg: half, p: broadcast.ScheduleParams{WCT: w, K: 3}},
		"single-link-nonadaptive":  {cfg: half, p: broadcast.ScheduleParams{K: 6}},
		"single-link-adaptive":     {cfg: half, p: broadcast.ScheduleParams{K: 6}},
		"single-link-coding":       {cfg: half, p: broadcast.ScheduleParams{K: 6}},
		"path-pipeline-routing":    {cfg: send, p: broadcast.ScheduleParams{PathLen: 4, K: 20}},
		"pipelined-batch-routing":  {top: graph.Layered(3, 3), cfg: half, p: broadcast.ScheduleParams{K: 4}},
		"transformed-path-routing": {cfg: send, p: broadcast.ScheduleParams{PathLen: 4, K: 20}},
		"transformed-path-coding":  {cfg: send, p: broadcast.ScheduleParams{PathLen: 4, K: 20}},
	}
}

// TestShardCasesCoverRegistry keeps scheduleCases, the per-schedule
// workloads of the snapshot tests, in sync with the registry: a new
// schedule without a case fails here.
func TestShardCasesCoverRegistry(t *testing.T) {
	cases := scheduleCases()
	for _, s := range broadcast.Schedules() {
		if _, ok := cases[s.Name]; !ok {
			t.Errorf("registry entry %q has no snapshot test case", s.Name)
		}
	}
	if len(cases) != len(broadcast.Schedules()) {
		t.Errorf("%d schedule cases for %d registry entries", len(cases), len(broadcast.Schedules()))
	}
}

// contractConfig adapts a case's radio config to one draw-contract
// version. v3 needs BadP above every swept marginal, exactly as the CI
// determinism axes run it.
func contractConfig(cfg radio.Config, draw radio.DrawContract) radio.Config {
	cfg.Draw = draw
	if draw == radio.DrawV3 {
		cfg.Burst = radio.BurstParams{BadP: 0.9}
	}
	return cfg
}

// TestSnapshotsMatchPrefixRows is the prefix-snapshot contract over the
// whole registry: for every schedule, draw contract, engine, worker
// count and chunk size, the snapshot a row sends at mark m is, bit for
// bit, the accumulator of a single-goroutine row over the first m
// trials, marks at single-trial prefixes included. The row's own final
// accumulator matches the full reference and a sibling row without
// snapshots, and the channel closes once the row completes.
func TestSnapshotsMatchPrefixRows(t *testing.T) {
	const trials = 10
	const seed = 7
	marks := []int{1, 2, 7} // adversarial: two single-trial prefixes, uneven rest
	execPlans := []SweepConfig{
		{Workers: 3},                // automatic chunking
		{Workers: 2, ChunkSize: 3},  // chunks that straddle the marks
		{Workers: 1, ChunkSize: 1},  // chunk-per-trial
		{Workers: 2, RowWorkers: 1}, // serialized row admission
	}
	for _, draw := range []radio.DrawContract{radio.DrawV1, radio.DrawV2, radio.DrawV3, radio.DrawV4} {
		for name, c := range scheduleCases() {
			sched := mustSchedule(t, name)
			ncfg := contractConfig(c.cfg, draw)

			// The references: one row per prefix and one over every
			// trial, single goroutine.
			ref := NewSweep(SweepConfig{Workers: 1})
			var refRows []*Row
			for _, m := range append(marks, trials) {
				refRows = append(refRows, ref.AddSchedule(sched, c.top, ncfg, c.p, m, seed, broadcast.Outcome.RoundsOrNaN))
			}
			if err := ref.Run(); err != nil {
				t.Fatalf("%s/%s: reference: %v", name, draw, err)
			}
			want := refRows[len(marks)].Acc()

			for _, ecfg := range execPlans {
				for _, eng := range []radio.Engine{radio.Auto, radio.Sparse, radio.Dense} {
					rcfg := ncfg
					rcfg.Engine = eng
					sw := NewSweep(ecfg)
					row := sw.AddSchedule(sched, c.top, rcfg, c.p, trials, seed, broadcast.Outcome.RoundsOrNaN)
					sibling := sw.AddSchedule(sched, c.top, rcfg, c.p, trials, seed, broadcast.Outcome.RoundsOrNaN)
					snaps := row.Snapshots(marks)
					if err := sw.Run(); err != nil {
						t.Fatalf("%s/%s/%v/%+v: run: %v", name, draw, eng, ecfg, err)
					}
					k := 0
					for got := range snaps {
						if k == len(marks) {
							t.Fatalf("%s/%s/%v/%+v: more snapshots than the %d marks", name, draw, eng, ecfg, len(marks))
						}
						if w := refRows[k].Acc(); got != *w {
							t.Fatalf("%s/%s/%v/%+v: snapshot at %d trials:\n%+v\nwant the %d-trial row's\n%+v", name, draw, eng, ecfg, marks[k], got, marks[k], *w)
						}
						k++
					}
					if k != len(marks) {
						t.Fatalf("%s/%s/%v/%+v: %d snapshots, want %d", name, draw, eng, ecfg, k, len(marks))
					}
					if *row.Acc() != *want || *sibling.Acc() != *want {
						t.Fatalf("%s/%s/%v/%+v: final accumulators differ from the reference row", name, draw, eng, ecfg)
					}
				}
			}
		}
	}
}

// TestSnapshotsByteStable: repeated executions of one row at automatic
// chunking send the same snapshots and fold the same final accumulator,
// bit for bit.
func TestSnapshotsByteStable(t *testing.T) {
	run := func() []stats.Accumulator {
		sw := NewSweep(SweepConfig{Workers: 3})
		row := sw.AddSchedule(mustSchedule(t, "decay"), graph.Complete(64),
			radio.Config{Fault: radio.ReceiverFaults, P: 0.3}, broadcast.ScheduleParams{}, 14, 11, broadcast.Outcome.RoundsOrNaN)
		snaps := row.Snapshots([]int{5, 6})
		if err := sw.Run(); err != nil {
			t.Fatal(err)
		}
		var got []stats.Accumulator
		for acc := range snaps {
			got = append(got, acc)
		}
		return append(got, *row.Acc())
	}
	first := run()
	if len(first) != 3 {
		t.Fatalf("%d snapshots, want 2", len(first)-1)
	}
	for i := 0; i < 2; i++ {
		if again := run(); !slices.Equal(again, first) {
			t.Fatalf("snapshots diverged across runs:\n%+v\n%+v", again, first)
		}
	}
}

// TestSnapshotsStopAtFailedTrial: a row sends the snapshots of every
// prefix without a failed trial, none after the first failed trial, and
// still closes the channel; the row error names the lowest failing
// trial. The same holds at every worker count and chunk size.
func TestSnapshotsStopAtFailedTrial(t *testing.T) {
	const trials, failAt = 40, 13
	marks := []int{5, 10, 13, 14, 20, 40}
	boom := errors.New("boom")
	for _, ecfg := range []SweepConfig{{Workers: 1}, {Workers: 3, ChunkSize: 1}, {Workers: 2, ChunkSize: 4}, {Workers: 2, ChunkSize: 64}} {
		sw := NewSweep(ecfg)
		row := sw.Add(trials, 1, func(trial int, r *rng.Stream) (float64, error) {
			if trial == failAt || trial == 30 {
				return 0, boom
			}
			return float64(trial), nil
		})
		snaps := row.Snapshots(marks)
		if err := sw.Run(); !errors.Is(err, boom) || !strings.Contains(err.Error(), "trial 13:") {
			t.Fatalf("%+v: run error %v, want trial 13's", ecfg, err)
		}
		var got []int
		for acc := range snaps {
			got = append(got, acc.N())
			if want := float64(acc.N()*(acc.N()-1)) / 2; acc.Sum() != want {
				t.Fatalf("%+v: snapshot of %d trials sums to %v, want %v", ecfg, acc.N(), acc.Sum(), want)
			}
		}
		if !slices.Equal(got, []int{5, 10, 13}) {
			t.Fatalf("%+v: snapshots at %v trials, want [5 10 13]", ecfg, got)
		}
	}
}

// TestSnapshotsUnderCancellation: a cancelled row sends no snapshot past
// its first cancelled chunk, and every snapshot it does send is a clean
// prefix; the channel still closes.
func TestSnapshotsUnderCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sw := NewSweep(SweepConfig{Workers: 1, ChunkSize: 1})
	row := sw.Add(50, 1, func(trial int, r *rng.Stream) (float64, error) {
		if trial == 20 {
			cancel()
		}
		return 1, nil
	})
	snaps := row.Snapshots([]int{10, 21, 22, 30})
	if err := sw.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext returned %v, want context.Canceled", err)
	}
	var got []int
	for acc := range snaps {
		if acc.N() != int(acc.Sum()) {
			t.Fatalf("snapshot %+v is not a clean prefix", acc)
		}
		got = append(got, acc.N())
	}
	if !slices.Equal(got, []int{10, 21}) {
		t.Fatalf("snapshots at %v trials, want [10 21]", got)
	}

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	sw = NewSweep(SweepConfig{Workers: 2})
	snaps = sw.Add(10, 1, func(trial int, r *rng.Stream) (float64, error) { return 1, nil }).Snapshots([]int{1, 5})
	if err := sw.RunContext(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext returned %v", err)
	}
	for acc := range snaps {
		t.Fatalf("pre-cancelled row sent a snapshot of %d trials", acc.N())
	}
}

// TestSnapshotsValidation pins the programming errors: marks that do not
// ascend strictly within [1, trials] (a task row has no trials), a second
// call, and a call after Run.
func TestSnapshotsValidation(t *testing.T) {
	trial := func(int, *rng.Stream) (float64, error) { return 1, nil }
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	for _, marks := range [][]int{{0}, {-1, 3}, {9}, {3, 3}, {5, 2}} {
		mustPanic(fmt.Sprint("marks ", marks), func() {
			NewSweep(SweepConfig{}).Add(8, 1, trial).Snapshots(marks)
		})
	}
	mustPanic("task row", func() {
		NewSweep(SweepConfig{}).Go(func() error { return nil }).Snapshots([]int{1})
	})
	mustPanic("second call", func() {
		row := NewSweep(SweepConfig{}).Add(8, 1, trial)
		row.Snapshots([]int{1})
		row.Snapshots([]int{2})
	})
	mustPanic("after Run", func() {
		sw := NewSweep(SweepConfig{Workers: 1})
		row := sw.Add(8, 1, trial)
		if err := sw.Run(); err != nil {
			t.Fatal(err)
		}
		row.Snapshots([]int{1})
	})
	// No marks and the full count are both valid.
	sw := NewSweep(SweepConfig{Workers: 1})
	none := sw.Add(8, 1, trial).Snapshots(nil)
	all := sw.Add(8, 1, trial).Snapshots([]int{8})
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-none; ok {
		t.Error("a row without marks sent a snapshot")
	}
	if acc, ok := <-all; !ok || acc.N() != 8 {
		t.Errorf("snapshot at the full count: %+v, %v", acc, ok)
	}
}

// TestRunContextCancellation: cancelling a sweep's context abandons
// not-yet-started chunks — every row still completes (RunContext returns
// only after admission has waited for each row's last fold), with the
// context error reported through the usual row-error path.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	var once atomic.Bool

	sw := NewSweep(SweepConfig{Workers: 1, ChunkSize: 1})
	row := sw.Add(50, 1, func(trial int, r *rng.Stream) (float64, error) {
		if once.CompareAndSwap(false, true) {
			close(started)
			<-release
		}
		return 1, nil
	})
	errc := make(chan error, 1)
	go func() { errc <- sw.RunContext(ctx) }()
	<-started
	cancel()
	close(release)
	err := <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext returned %v, want context.Canceled", err)
	}
	if !errors.Is(row.Err(), context.Canceled) {
		t.Fatalf("row error = %v, want context.Canceled", row.Err())
	}
	if n := row.Acc().N(); n >= 50 {
		t.Fatalf("cancelled row folded all %d trials", n)
	}
}

// TestRunContextPreCancelled: an already-cancelled context runs nothing.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw := NewSweep(SweepConfig{Workers: 2})
	row := sw.Add(10, 1, func(trial int, r *rng.Stream) (float64, error) { return 1, nil })
	task := sw.Go(func() error { return nil })
	if err := sw.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext returned %v", err)
	}
	if row.Acc().N() != 0 {
		t.Fatalf("pre-cancelled row folded %d trials", row.Acc().N())
	}
	if !errors.Is(task.Err(), context.Canceled) {
		t.Fatalf("pre-cancelled task error = %v", task.Err())
	}
}

// TestRunContextCompleteRunIsNil: cancellation that lands after every
// chunk has folded does not poison a complete result.
func TestRunContextCompleteRunIsNil(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sw := NewSweep(SweepConfig{Workers: 2})
	row := sw.Add(20, 1, func(trial int, r *rng.Stream) (float64, error) { return float64(trial), nil })
	if err := sw.RunContext(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := row.Err(); err != nil {
		t.Fatal(err)
	}
	if row.Acc().N() != 20 {
		t.Fatalf("complete run folded %d trials", row.Acc().N())
	}
}
