// Package broadcast implements the paper's contribution: single- and
// multi-message broadcast algorithms for the (noisy) radio network model and
// the routing/coding schedules behind its throughput-gap theorems.
//
// Single-message algorithms (Section 4.1):
//
//   - Decay   — Bar-Yehuda, Goldreich, Itai [5]; robust as-is (Lemma 9).
//   - FASTBC  — Gąsieniec, Peleg, Xin [22]; diameter-linear when faultless
//     (Lemma 8) but deteriorating to Θ(p/(1-p)·D log n) under faults
//     (Lemma 10).
//   - Robust FASTBC — the paper's new algorithm; diameter-linear under
//     sender or receiver faults (Theorem 11).
//
// Multi-message algorithms (Sections 4.2 and 5): random linear network
// coding on top of Decay and Robust FASTBC (Lemmas 12–13), the adaptive
// routing and Reed–Solomon coding schedules for the star (Lemmas 15–16),
// the single-link schedules (Appendix A), the WCT schedules (Lemmas 19–23),
// and the sender-fault transformations (Lemmas 25–26).
package broadcast

import (
	"fmt"
	"math"
	"math/bits"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// Options tunes an execution. The zero value selects sensible defaults.
type Options struct {
	// MaxRounds caps the execution; 0 selects a generous default derived
	// from the topology and noise level.
	MaxRounds int
	// Trace, if non-nil, observes every executed round (broadcasters and
	// successful receivers). Intended for small demonstrative runs; see
	// internal/trace.
	Trace radio.TraceFunc
}

// defaultMaxRounds returns a cap comfortably above every algorithm's
// high-probability bound so that caps only trigger on genuine failures.
func defaultMaxRounds(n, diameter int, cfg radio.Config) int {
	logn := float64(graph.Log2Ceil(n) + 1)
	slack := 1.0
	if cfg.Fault != radio.Faultless {
		slack = 1 / (1 - cfg.P)
	}
	est := slack * (40*float64(diameter+1)*logn + 60*logn*logn + 1000)
	if est > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(est)
}

// resolveMaxRounds applies the default when opts leaves MaxRounds unset.
func resolveMaxRounds(opts Options, n, diameter int, cfg radio.Config) int {
	if opts.MaxRounds > 0 {
		return opts.MaxRounds
	}
	return defaultMaxRounds(n, diameter, cfg)
}

// decayPhaseLen returns the Decay phase length for n nodes: probabilities
// 2^-1 .. 2^-phaseLen cover every possible informed-neighbour count.
func decayPhaseLen(n int) int {
	return graph.Log2Ceil(n) + 1
}

// scheduleFunc marks one round's broadcasters for one trial, through the
// trial's runner: Mark, DecayStep and Informed.
type scheduleFunc func(m *singleRunner, round int)

// scheduleFactory builds a fresh per-trial schedule closure. It belongs
// to a plan, which every trial of a binding shares, so it is called
// concurrently and the closures it returns share the plan's tables
// read-only. Schedules with per-trial mutable state (decayUnknownN's
// growing epochs) need one closure per trial; stateless schedules may
// return a shared one.
type scheduleFactory func() scheduleFunc

// singlePlan prepares a single-message schedule over a validated
// topology: its round cap and its per-trial schedule factory. The plan
// depends only on the topology, config and parameters, never on a
// trial's stream, so a binding (Schedule.Bind) builds it at most once and
// every trial of the binding runs on it.
type singlePlan func(top graph.Topology, cfg radio.Config, p ScheduleParams) (maxRounds int, factory scheduleFactory, err error)

// runTrial executes one single-message trial of a prepared plan, capped
// at maxRounds, from the topology's source.
func runTrial(top graph.Topology, cfg radio.Config, r *rng.Stream, trace radio.TraceFunc, maxRounds int, sched scheduleFunc) (Outcome, error) {
	runner, err := newSingleRunner(top.G, top.Source, cfg, r)
	if err != nil {
		return Outcome{}, err
	}
	runner.net.SetTrace(trace)
	return runner.run(maxRounds, sched), nil
}

// singleRunner drives the shared informed-set loop of the single-message
// algorithms: per round, a schedule marks broadcasters from the informed
// set into the tx bitset; the radio engine resolves receptions straight
// into the rx bitset (no per-delivery closure); receivers join the
// informed set. The schedule stays a bitset end-to-end — no []bool is
// filled, scanned or cleared anywhere in the loop.
//
// informedList mirrors the informed bitset in arrival order so schedules can
// Bernoulli-sample broadcasters in O(expected broadcasters) time via
// geometric skips rather than O(n) per round.
type singleRunner struct {
	net          *radio.Network[struct{}]
	informed     *bitset.Set
	informedList []int32
	picks        []int32     // DecayStep's positions in informedList, reused across rounds
	tx           *bitset.Set // broadcasters this round
	rx           *bitset.Set // successful receivers this round
	payload      []struct{}
	rnd          *rng.Stream
}

func newSingleRunner(g *graph.Graph, src int, cfg radio.Config, r *rng.Stream) (*singleRunner, error) {
	net, err := radio.New[struct{}](g, cfg, r)
	if err != nil {
		return nil, err
	}
	informed := bitset.New(g.N())
	informed.Set(src)
	return &singleRunner{
		net:          net,
		informed:     informed,
		informedList: append(make([]int32, 0, g.N()), int32(src)),
		picks:        make([]int32, 0, g.N()), // a round picks at most every informed node, so this never grows
		tx:           bitset.New(g.N()),
		rx:           bitset.New(g.N()),
		payload:      make([]struct{}, g.N()),
		rnd:          r,
	}, nil
}

// Mark sets v to broadcast this round.
func (s *singleRunner) Mark(v int32) {
	s.tx.Set(int(v))
}

// DecayStep marks each informed node independently with skip's success
// probability: skip.Positions draws the gaps between marked nodes over
// the informed list (expected cost O(p·|informed|)) into a buffer the
// runner reuses across rounds. skip comes from the plan's decaySkips
// table, built once per plan and shared read-only by every trial, so a
// round computes no log1p for Decay's p = 2^-e with e <= 6.
func (s *singleRunner) DecayStep(skip rng.Geometric) {
	s.picks = skip.Positions(s.rnd, len(s.informedList), s.picks[:0])
	for _, pos := range s.picks {
		s.Mark(s.informedList[pos])
	}
}

// Informed reports whether v is informed.
func (s *singleRunner) Informed(v int32) bool {
	return s.informed.Test(int(v))
}

// step executes one round: schedule marks the broadcasters, the network
// resolves their receivers into rx, and the receivers join the informed
// set a word at a time, the newly informed appended in ascending id
// order, which fixes informedList's order and so which nodes a Decay
// pick's positions name. tx and rx are then cleared over their nonzero
// windows only.
func (s *singleRunner) step(schedule scheduleFunc, round int) {
	schedule(s, round)
	s.net.StepSet(s.tx, s.payload, s.rx, nil)
	rxw, infw := s.rx.Words(), s.informed.Words()
	lo, hi := s.rx.NonzeroRange()
	for wi := lo; wi < hi; wi++ {
		fresh := rxw[wi] &^ infw[wi]
		infw[wi] |= fresh
		for ; fresh != 0; fresh &= fresh - 1 {
			s.informedList = append(s.informedList, int32(wi*64+bits.TrailingZeros64(fresh)))
		}
	}
	s.rx.ResetWindow(lo, hi)
	s.tx.ResetWindow(s.tx.NonzeroRange())
}

// run executes schedule until all nodes are informed or maxRounds elapse.
// schedule marks the broadcasters of each round through s.
func (s *singleRunner) run(maxRounds int, schedule scheduleFunc) Outcome {
	n := s.informed.Len()
	round := 0
	for ; round < maxRounds && len(s.informedList) < n; round++ {
		s.step(schedule, round)
	}
	return Outcome{
		Rounds:  round,
		Success: len(s.informedList) == n,
		Done:    len(s.informedList),
		Channel: s.net.Stats(),
	}
}

// validateTopology rejects graphs on which broadcast cannot terminate.
func validateTopology(top graph.Topology) error {
	if top.G == nil {
		return fmt.Errorf("broadcast: nil graph in topology %q", top.Name)
	}
	if top.Source < 0 || top.Source >= top.G.N() {
		return fmt.Errorf("broadcast: source %d out of range for %q", top.Source, top.Name)
	}
	return nil
}
