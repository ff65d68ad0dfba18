package sim

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
	"noisyradio/internal/stats"
)

// shardCase binds one registry entry to a small but non-trivial workload,
// mirroring the broadcast package's schedule test cases.
type shardCase struct {
	top graph.Topology
	cfg radio.Config
	p   broadcast.ScheduleParams
}

func shardCases() map[string]shardCase {
	recv := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	half := radio.Config{Fault: radio.ReceiverFaults, P: 0.45}
	send := radio.Config{Fault: radio.SenderFaults, P: 0.3}
	path := graph.Path(24)
	w := graph.NewWCT(graph.DefaultWCTParams(80), rng.New(7))
	return map[string]shardCase{
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

// TestShardCasesCoverRegistry keeps the shard workloads and the registry
// in sync: a new schedule without a shard-merge case fails here.
func TestShardCasesCoverRegistry(t *testing.T) {
	cases := shardCases()
	for _, s := range broadcast.Schedules() {
		if _, ok := cases[s.Name]; !ok {
			t.Errorf("registry entry %q has no shard-merge test case", s.Name)
		}
	}
	if len(cases) != len(broadcast.Schedules()) {
		t.Errorf("%d shard cases for %d registry entries", len(cases), len(broadcast.Schedules()))
	}
}

func nanOnFailure(out broadcast.Outcome) (float64, error) {
	if !out.Success {
		return math.NaN(), nil
	}
	return float64(out.Rounds), nil
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

// TestAddScheduleShardMergeMatchesSequential is the sharded-merge
// acceptance contract over the whole registry: for every schedule, draw
// contract, engine, worker count and chunk size, the shard rows of an adversarial
// shard plan — single-trial shards included — merge (in shard order) to
// the single-goroutine in-order fold's statistics: count, dropped, sum,
// min and max bit-exact (outcome statistics are integer-valued), mean and
// variance within 1e-12.
func TestAddScheduleShardMergeMatchesSequential(t *testing.T) {
	const trials = 10
	const seed = 7
	plans := [][2]int{{0, 1}, {1, 2}, {2, 7}, {7, 10}} // adversarial: two single-trial shards, uneven rest
	execPlans := []SweepConfig{
		{Workers: 3},                // automatic chunking
		{Workers: 2, ChunkSize: 3},  // chunks that straddle shard sizes
		{Workers: 1, ChunkSize: 1},  // chunk-per-trial
		{Workers: 2, RowWorkers: 1}, // serialized shard admission
	}
	for _, draw := range []radio.DrawContract{radio.DrawV1, radio.DrawV2, radio.DrawV3, radio.DrawV4} {
		for name, c := range shardCases() {
			sched := mustSchedule(t, name)
			ncfg := contractConfig(c.cfg, draw)

			// The reference: one unsharded row, single goroutine, scalar.
			ref := NewSweep(SweepConfig{Workers: 1})
			refRow := ref.AddSchedule(sched, c.top, ncfg, c.p, trials, seed, nanOnFailure)
			if err := ref.Run(); err != nil {
				t.Fatalf("%s/%s: reference: %v", name, draw, err)
			}
			if err := refRow.Err(); err != nil {
				t.Fatalf("%s/%s: reference row: %v", name, draw, err)
			}
			want := refRow.Acc()

			for _, ecfg := range execPlans {
				for _, eng := range []radio.Engine{radio.Auto, radio.Sparse, radio.Dense} {
					rcfg := ncfg
					rcfg.Engine = eng
					sw := NewSweep(ecfg)
					rows := make([]*Row, len(plans))
					for i, pl := range plans {
						rows[i] = sw.AddScheduleShard(sched, c.top, rcfg, c.p, pl[0], pl[1], seed, nanOnFailure)
					}
					if err := sw.Run(); err != nil {
						t.Fatalf("%s/%s/%v/%+v: sharded run: %v", name, draw, eng, ecfg, err)
					}
					merged := stats.NewAccumulator()
					for i, row := range rows {
						if err := row.Err(); err != nil {
							t.Fatalf("%s/%s/%v: shard %d: %v", name, draw, eng, i, err)
						}
						merged.Merge(row.Acc())
					}
					if merged.N() != want.N() || merged.Dropped() != want.Dropped() {
						t.Fatalf("%s/%s/%v/%+v: N/Dropped = %d/%d, want %d/%d",
							name, draw, eng, ecfg, merged.N(), merged.Dropped(), want.N(), want.Dropped())
					}
					if want.N() == 0 {
						continue
					}
					if merged.Sum() != want.Sum() || merged.Min() != want.Min() || merged.Max() != want.Max() {
						t.Fatalf("%s/%s/%v/%+v: sum/min/max = %v/%v/%v, want %v/%v/%v exactly",
							name, draw, eng, ecfg, merged.Sum(), merged.Min(), merged.Max(), want.Sum(), want.Min(), want.Max())
					}
					if math.Abs(merged.Mean()-want.Mean()) > 1e-12*math.Max(1, math.Abs(want.Mean())) {
						t.Fatalf("%s/%s/%v/%+v: mean %v, want %v within 1e-12", name, draw, eng, ecfg, merged.Mean(), want.Mean())
					}
					if math.Abs(merged.Variance()-want.Variance()) > 1e-12*math.Max(1, want.Variance()) {
						t.Fatalf("%s/%s/%v/%+v: variance %v, want %v within 1e-12", name, draw, eng, ecfg, merged.Variance(), want.Variance())
					}
				}
			}
		}
	}
}

// TestAddScheduleShardByteStableMerge: a fixed shard plan merges to the
// byte-identical accumulator state across repeated executions — the
// determinism the sweep service's result cache is built on.
func TestAddScheduleShardByteStableMerge(t *testing.T) {
	run := func() stats.Accumulator {
		sw := NewSweep(SweepConfig{Workers: 3})
		var rows []*Row
		for _, pl := range [][2]int{{0, 5}, {5, 6}, {6, 14}} {
			rows = append(rows, sw.AddScheduleShard(mustSchedule(t, "decay"), graph.Complete(64),
				radio.Config{Fault: radio.ReceiverFaults, P: 0.3}, broadcast.ScheduleParams{}, pl[0], pl[1], 11, nanOnFailure))
		}
		if err := sw.Run(); err != nil {
			t.Fatal(err)
		}
		merged := stats.NewAccumulator()
		for _, row := range rows {
			merged.Merge(row.Acc())
		}
		return *merged
	}
	first := run()
	for i := 0; i < 2; i++ {
		if again := run(); again != first {
			t.Fatalf("merge state diverged across runs:\n%+v\n%+v", again, first)
		}
	}
}

// TestAddScheduleShardValidation pins the shard-range programming errors.
func TestAddScheduleShardValidation(t *testing.T) {
	for _, r := range [][2]int{{-1, 3}, {3, 3}, {5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range [%d, %d) did not panic", r[0], r[1])
				}
			}()
			sw := NewSweep(SweepConfig{})
			sw.AddScheduleShard(mustSchedule(t, "decay"), graph.Path(8),
				radio.Config{}, broadcast.ScheduleParams{}, r[0], r[1], 1, nanOnFailure)
		}()
	}
}

// TestRunContextCancellation: cancelling a sweep's context abandons
// not-yet-started chunks — every row still completes (Done closes, Run
// returns), with the context error reported through the usual row-error
// path.
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
	select {
	case <-row.Done():
	default:
		t.Fatal("row.Done() not closed after cancelled run returned")
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

// TestRowDoneAndSnapshot: Done closes per row as it completes (not at
// sweep granularity), and Snapshot equals the final accumulator state
// once Done has closed.
func TestRowDoneAndSnapshot(t *testing.T) {
	release := make(chan struct{})
	sw := NewSweep(SweepConfig{Workers: 2})
	fast := sw.Add(8, 1, func(trial int, r *rng.Stream) (float64, error) { return float64(trial), nil })
	slow := sw.Add(1, 2, func(trial int, r *rng.Stream) (float64, error) {
		<-release
		return 0, nil
	})
	errc := make(chan error, 1)
	go func() { errc <- sw.Run() }()

	<-fast.Done()
	select {
	case <-slow.Done():
		t.Fatal("slow row done before release")
	default:
	}
	snap := fast.Snapshot()
	if snap.N() != 8 {
		t.Fatalf("fast snapshot N = %d, want 8", snap.N())
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if final := fast.Snapshot(); final != *fast.Acc() {
		t.Fatalf("snapshot after Done diverged from Acc:\n%+v\n%+v", final, *fast.Acc())
	}
}
