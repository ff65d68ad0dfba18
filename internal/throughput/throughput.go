// Package throughput estimates topology throughput (Definition 1 of the
// paper) and coding gaps (Definitions 2 and 3) from repeated simulation.
//
// The paper's throughput τ(G, s) is an asymptotic quantity (k → ∞); the
// empirical counterpart measured here is k / E[rounds to success] at a
// finite k, with confidence intervals over Monte-Carlo trials. Gap
// estimates divide two such estimates taken over paired seeds.
package throughput

import (
	"errors"
	"fmt"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/sim"
	"noisyradio/internal/stats"
)

// ErrAllTrialsFailed marks an Estimate whose every Monte-Carlo trial
// failed to deliver: no mean or throughput exists, but the measurement
// itself is sound — the schedule simply never succeeded under this noise
// (routinely the case for non-adaptive routing under heavily correlated
// faults). Callers match with errors.Is to report the collapse instead of
// treating it as a harness failure.
var ErrAllTrialsFailed = errors.New("all trials failed")

// Estimate is an empirical throughput measurement.
type Estimate struct {
	K           int     // messages per execution
	Trials      int     // Monte-Carlo repetitions
	MeanRounds  float64 // mean rounds over successful trials
	RoundsCI95  float64 // 95% confidence half-width of MeanRounds
	Tau         float64 // K / MeanRounds
	SuccessRate float64 // fraction of successful trials
}

// Pending is a deferred throughput measurement: a row registered on a
// shared sweep by DeferSchedule, whose Estimate becomes available once the
// sweep has run. Rows from many Pending measurements execute on one
// worker pool, which is how the experiment harness keeps every core busy
// even when a single row has only a handful of trials.
type Pending struct {
	k      int
	trials int
	row    *sim.Row
}

// DeferSchedule registers a throughput measurement of one registered
// broadcast schedule on sw, with k = p.K messages per execution. How the
// trials execute — engine and worker count — is the sweep's execution
// plan (see sim.Sweep.AddSchedule); estimates are bit-identical at every
// plan. The streaming row statistics use NaN
// as the failed-trial sentinel, so MeanRounds averages successful trials
// only while SuccessRate still sees every trial, in O(1) memory per row.
// It panics on p.K < 1.
func DeferSchedule(sw *sim.Sweep, sched *broadcast.Schedule, top graph.Topology, cfg radio.Config, p broadcast.ScheduleParams, trials int, seed uint64) *Pending {
	if p.K < 1 {
		panic(fmt.Sprintf("throughput: k = %d, need >= 1", p.K))
	}
	row := sw.AddSchedule(sched, top, cfg, p, trials, seed, broadcast.Outcome.RoundsOrNaN)
	return &Pending{k: p.K, trials: trials, row: row}
}

// Estimate resolves the deferred measurement. Valid only after the sweep
// passed to DeferSchedule has run. An error is returned if a trial
// errored or if every trial failed.
func (p *Pending) Estimate() (Estimate, error) {
	if err := p.row.Err(); err != nil {
		return Estimate{}, err
	}
	acc := p.row.Acc()
	est := Estimate{
		K:           p.k,
		Trials:      p.trials,
		SuccessRate: float64(acc.N()) / float64(p.trials),
	}
	if acc.N() == 0 {
		// The estimate (with its zero SuccessRate and trial count) is still
		// returned: callers distinguishing "the schedule collapsed under
		// this noise" from a harness error match on ErrAllTrialsFailed and
		// may render the collapse as a result rather than abort.
		return est, fmt.Errorf("throughput: all %d trials failed: %w", p.trials, ErrAllTrialsFailed)
	}
	est.MeanRounds = acc.Mean()
	est.RoundsCI95 = acc.CI95()
	est.Tau = float64(p.k) / est.MeanRounds
	return est, nil
}

// Gap is a coding-versus-routing comparison on one topology: the empirical
// counterpart of the coding gap τ_NC/τ_R.
type Gap struct {
	Coding  Estimate
	Routing Estimate
	// Ratio is Coding.Tau / Routing.Tau.
	Ratio float64
}

// PendingGap is a deferred gap measurement: both sides registered on a
// shared sweep by DeferGapSchedule, resolved by Gap after the sweep has
// run.
type PendingGap struct {
	coding  *Pending
	routing *Pending
}

// DeferGapSchedule registers both sides of a gap measurement on sw: two
// registered schedules sharing one topology and noise configuration, with
// paired seeds (seed for coding, seed+1 for routing). Each side's k is its
// own params' K.
func DeferGapSchedule(sw *sim.Sweep, coding, routing *broadcast.Schedule, top graph.Topology, cfg radio.Config, codingP, routingP broadcast.ScheduleParams, trials int, seed uint64) *PendingGap {
	return &PendingGap{
		coding:  DeferSchedule(sw, coding, top, cfg, codingP, trials, seed),
		routing: DeferSchedule(sw, routing, top, cfg, routingP, trials, seed+1),
	}
}

// Gap resolves the deferred gap measurement. Valid only after the sweep
// passed to DeferGapSchedule has run.
func (p *PendingGap) Gap() (Gap, error) {
	c, err := p.coding.Estimate()
	if err != nil {
		return Gap{}, fmt.Errorf("coding side: %w", err)
	}
	r, err := p.routing.Estimate()
	if err != nil {
		return Gap{}, fmt.Errorf("routing side: %w", err)
	}
	return Gap{Coding: c, Routing: r, Ratio: stats.Ratio(c.Tau, r.Tau)}, nil
}
