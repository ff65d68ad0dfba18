package sim

import (
	"fmt"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// AddSchedule registers `trials` Monte-Carlo executions of one broadcast
// schedule as a sweep row — the single execution entry point of the
// Schedule API. The caller names *what* to run (a registry entry, its
// topology, noise configuration and parameters) and how to fold each
// outcome into the row's statistic; *how* it runs is the sweep's execution
// plan: the radio engine resolves per topology (radio.Auto logic), and
// whether trials execute scalar or as W-wide lockstep batches — and at
// which W — follows SweepConfig.TrialBatch, with TrialBatchAuto planning W
// from the trial count and the resolved engine. Rows of schedules without
// a lockstep twin, and rows whose topology resolves to the sparse or
// implicit engine, run scalar. The scalar/batch fork never reaches the
// caller, and the chosen plan is recorded in the process plan log
// (PlanLog).
//
// value maps one outcome to the row's float64; returning an error fails
// the trial (lowest-trial-first, as for TrialFunc), returning NaN feeds
// the accumulator's failed-trial sentinel. Rows are bit-identical at
// every plan: trial i always draws from rng.NewFrom(seed, i) and executes
// the schedule's canonical draw sequence whether it runs scalar or as one
// lane of a batch (the broadcast package enforces this by test).
func (s *Sweep) AddSchedule(sched *broadcast.Schedule, top graph.Topology, cfg radio.Config, p broadcast.ScheduleParams, trials int, seed uint64, value func(broadcast.Outcome) (float64, error)) *Row {
	return s.addSchedule(sched, top, cfg, p, 0, trials, seed, value)
}

// AddScheduleShard registers the trial range [start, end) of a logical
// (trials, seed) schedule row as its own sweep row. Shard trial i draws
// the stream of *global* trial start+i (rng.NewFrom(seed, start+i)), so a
// set of shards covering [0, trials) executes exactly the trials the
// unsharded AddSchedule row would — same draws, same outcomes — just
// folded into per-shard accumulators. Merging those accumulators in shard
// order (stats.Accumulator.Merge) reproduces the unsharded row's summary
// per the Merge exactness contract: count/sum/min/max exact for the
// integer-valued outcome statistics, moments to ~1 ulp per merge,
// quantiles as a deterministic estimator-level approximation. This is the
// sweep service's shard-parallel execution primitive: shards of one job
// complete (and stream) independently while the merged result stays a
// pure function of the plan.
func (s *Sweep) AddScheduleShard(sched *broadcast.Schedule, top graph.Topology, cfg radio.Config, p broadcast.ScheduleParams, start, end int, seed uint64, value func(broadcast.Outcome) (float64, error)) *Row {
	if start < 0 || end <= start {
		panic(fmt.Sprintf("sim: Sweep.AddScheduleShard range [%d, %d), need 0 <= start < end", start, end))
	}
	return s.addSchedule(sched, top, cfg, p, start, end-start, seed, value)
}

func (s *Sweep) addSchedule(sched *broadcast.Schedule, top graph.Topology, cfg radio.Config, p broadcast.ScheduleParams, base, trials int, seed uint64, value func(broadcast.Outcome) (float64, error)) *Row {
	if sched == nil {
		panic("sim: Sweep.AddSchedule nil schedule")
	}
	if value == nil {
		panic("sim: Sweep.AddSchedule nil value function")
	}
	scalar := func(trial int, r *rng.Stream) (float64, error) {
		out, err := sched.Run(top, cfg, r, p)
		if err != nil {
			return 0, err
		}
		return value(out)
	}
	batch := AdaptBatch(func(rnds []*rng.Stream) ([]broadcast.Outcome, error) {
		return sched.RunBatch(top, cfg, rnds, p)
	}, value)
	row := s.AddBatch(trials, seed, scalar, batch)
	row.base = base
	row.sched = sched.Name
	row.planLockstep = sched.HasLockstep()
	row.planDraw = cfg.DrawLabel()
	// Resolve the engine the radio layer would pick for the schedule's
	// effective topology — the planner input. When the topology is unknown
	// (underspecified params), the configured engine selection stands:
	// radio.Auto then plans as dense, the engine batching was built for.
	row.planEngine = cfg.Engine
	if pt := sched.PlanTopology(top, p); pt.G != nil {
		row.planEngine = cfg.ResolveEngine(pt.G)
	}
	return row
}
