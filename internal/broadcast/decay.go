package broadcast

import (
	"math"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// decaySchedule returns the Decay schedule for n nodes: in the i-th round
// of a ⌈log₂ n⌉+1-round phase every informed node broadcasts independently
// with probability 2^-(i+1). The phase's skip samplers are built here,
// once per plan; the schedule is stateless, so the factory hands every
// trial the same closure.
func decaySchedule(n int) scheduleFactory {
	phaseLen := decayPhaseLen(n)
	skips := decaySkips(phaseLen)
	sched := func(m *singleRunner, round int) {
		m.DecayStep(skips[round%phaseLen])
	}
	return func() scheduleFunc { return sched }
}

// decayPlan plans the classic Decay algorithm [Bar-Yehuda, Goldreich, Itai
// 1992] for single-message broadcast from the topology's source (Section
// 3.4.1).
//
// Rounds are grouped into phases of ⌈log₂ n⌉+1 rounds; in the i-th round of
// a phase every informed node broadcasts independently with probability
// 2^-i. The algorithm needs no topology knowledge and, per Lemma 9, remains
// robust under sender or receiver faults: it completes in
// O(log n/(1-p) · (D + log n + log 1/δ)) rounds with failure probability δ.
func decayPlan(top graph.Topology, cfg radio.Config, p ScheduleParams) (int, scheduleFactory, error) {
	g := top.G
	return resolveMaxRounds(p.Options, g.N(), g.Eccentricity(top.Source), cfg), decaySchedule(g.N()), nil
}

// decaySkips returns the geometric skip samplers of a Decay phase: entry
// i draws the gaps between the informed nodes that broadcast in the i-th
// round, each independently with probability 2^-(i+1). Building them once
// per plan keeps the Exp2 and, below p = 2^-6, the log1p out of the round
// loop.
func decaySkips(phaseLen int) []rng.Geometric {
	skips := make([]rng.Geometric, phaseLen)
	for i := range skips {
		skips[i] = rng.NewGeometric(math.Exp2(-float64(i + 1)))
	}
	return skips
}

// decayCoins precomputes the Decay probabilities as integer-threshold
// Bernoulli samplers, for schedules that draw a per-node coin each round
// (the pipelined layers) rather than geometric-skip over a frontier list.
// Coin i is draw-for-draw identical to r.Bool(2^-(i+1)).
func decayCoins(phaseLen int) []rng.Bernoulli {
	coins := make([]rng.Bernoulli, phaseLen)
	for i := range coins {
		coins[i] = rng.NewBernoulli(math.Exp2(-float64(i + 1)))
	}
	return coins
}

// unknownNSchedule returns the DecayUnknownN growing-epoch schedule. Its
// 62 skip samplers, one per epoch position, are built once per plan and
// shared read-only; the epoch position is per-trial mutable state, so
// every trial gets a fresh closure.
func unknownNSchedule() scheduleFactory {
	// The epoch cap keeps probabilities meaningful once epochs are longer
	// than any informed set could require; growth beyond 63 would underflow
	// 2^-i anyway.
	const epochCap = 62
	skips := decaySkips(epochCap)
	return func() scheduleFunc {
		epoch, pos := 1, 0
		return func(m *singleRunner, round int) {
			m.DecayStep(skips[pos])
			pos++
			if pos >= epoch {
				pos = 0
				if epoch < epochCap {
					epoch++
				}
			}
		}
	}
}

// unknownNPlan plans Decay without any knowledge of the network — not
// even its size. Where the standard algorithm cycles broadcast
// probabilities 2^-1..2^-⌈log n⌉ (which requires knowing n to size the
// phase), this variant sweeps growing epochs — the e-th epoch uses
// probabilities 2^-1..2^-e — capped at 62, which covers every
// representable n. The growing prefix makes early progress cheap while the
// informed sets are small; once the cap is reached this is exactly Decay
// with phase length 62, so the rounds bound is
// O((D + log n)·max(log n, 62)/(1-p)): the Lemma 6/9 guarantee for every
// practical n, at a 62/⌈log n⌉ constant overhead that the package tests
// measure. (A schedule with o(log n) overhead without knowing n is a
// different research problem; this is the honest engineering trade.)
func unknownNPlan(top graph.Topology, cfg radio.Config, p ScheduleParams) (int, scheduleFactory, error) {
	g := top.G
	return resolveMaxRounds(p.Options, g.N(), g.Eccentricity(top.Source), cfg), unknownNSchedule(), nil
}
