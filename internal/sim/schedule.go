package sim

import (
	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// AddSchedule registers `trials` Monte-Carlo executions of one broadcast
// schedule as a sweep row — the single execution entry point of the
// Schedule API. The caller names *what* to run (a registry entry, its
// topology, noise configuration and parameters) and how to fold each
// outcome into the row's statistic; the radio engine resolves per
// topology (radio.Auto logic), and every trial runs on its own network.
// The row's plan — its resolved engine — is recorded in the process plan
// log (PlanLog) when the sweep runs.
//
// value maps one outcome to the row's float64; returning an error fails
// the trial (lowest-trial-first, as for TrialFunc), returning NaN feeds
// the accumulator's failed-trial sentinel. Trial i always draws from
// rng.NewFrom(seed, i), so rows are bit-identical at every worker count
// and engine.
func (s *Sweep) AddSchedule(sched *broadcast.Schedule, top graph.Topology, cfg radio.Config, p broadcast.ScheduleParams, trials int, seed uint64, value func(broadcast.Outcome) (float64, error)) *Row {
	if sched == nil {
		panic("sim: Sweep.AddSchedule nil schedule")
	}
	if value == nil {
		panic("sim: Sweep.AddSchedule nil value function")
	}
	// One binding per row: its trials, on every worker, share the
	// schedule's plan, built once on first use.
	run := sched.Bind(top, cfg, p)
	row := s.Add(trials, seed, func(trial int, r *rng.Stream) (float64, error) {
		out, err := run(r)
		if err != nil {
			return 0, err
		}
		return value(out)
	})
	row.sched = sched.Name
	row.planDraw = cfg.DrawLabel()
	// Record the engine the radio layer picks for the schedule's effective
	// topology. When the topology is unknown (underspecified params), the
	// configured engine selection stands.
	row.planEngine = cfg.Engine
	if pt := sched.PlanTopology(top, p); pt.G != nil {
		row.planEngine = cfg.ResolveEngine(pt.G)
	}
	return row
}
