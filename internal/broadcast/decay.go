package broadcast

import (
	"math"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// decaySchedule returns the Decay schedule for n nodes: in the i-th round
// of a ⌈log₂ n⌉+1-round phase every informed node broadcasts independently
// with probability 2^-(i+1). Stateless, so the factory hands every trial
// the same closure.
func decaySchedule(n int) scheduleFactory {
	phaseLen := decayPhaseLen(n)
	probs := decayProbabilities(phaseLen)
	sched := func(m marker, round int) {
		m.DecayStep(probs[round%phaseLen])
	}
	return func() scheduleFunc { return sched }
}

// decay runs the classic Decay algorithm [Bar-Yehuda, Goldreich, Itai 1992]
// for single-message broadcast from the topology's source (Section 3.4.1).
//
// Rounds are grouped into phases of ⌈log₂ n⌉+1 rounds; in the i-th round of
// a phase every informed node broadcasts independently with probability
// 2^-i. The algorithm needs no topology knowledge and, per Lemma 9, remains
// robust under sender or receiver faults: it completes in
// O(log n/(1-p) · (D + log n + log 1/δ)) rounds with failure probability δ.
func decay(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	return runSingle(top, cfg, r, p, decayPlan)
}

// decayBatch runs one independent decay trial per stream in rnds, in
// lockstep on a trial-batched radio network (see runSingleBatch).
func decayBatch(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Outcome, error) {
	return runSingleBatch(top, cfg, rnds, p, decayPlan)
}

func decayPlan(top graph.Topology, cfg radio.Config, p ScheduleParams) (int, scheduleFactory, error) {
	g := top.G
	return resolveMaxRounds(p.Options, g.N(), g.Eccentricity(top.Source), cfg), decaySchedule(g.N()), nil
}

// decayProbabilities precomputes 2^-(i+1) for the i-th round of a phase.
func decayProbabilities(phaseLen int) []float64 {
	probs := make([]float64, phaseLen)
	for i := range probs {
		probs[i] = math.Exp2(-float64(i + 1))
	}
	return probs
}

// decayCoins precomputes the Decay probabilities as integer-threshold
// Bernoulli samplers, for schedules that draw a per-node coin each round
// (the pipelined layers) rather than geometric-skip over a frontier list.
// Draw-for-draw identical to r.Bool(decayProbabilities(...)[i]).
func decayCoins(phaseLen int) []rng.Bernoulli {
	coins := make([]rng.Bernoulli, phaseLen)
	for i := range coins {
		coins[i] = rng.NewBernoulli(math.Exp2(-float64(i + 1)))
	}
	return coins
}

// unknownNSchedule returns the DecayUnknownN growing-epoch schedule. The
// epoch position is per-trial mutable state, so every trial gets a fresh
// closure.
func unknownNSchedule() scheduleFactory {
	// The epoch cap keeps probabilities meaningful once epochs are longer
	// than any informed set could require; growth beyond 63 would underflow
	// 2^-i anyway.
	const epochCap = 62
	return func() scheduleFunc {
		epoch, pos := 1, 0
		return func(m marker, round int) {
			m.DecayStep(math.Exp2(-float64(pos + 1)))
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

// decayUnknownN runs Decay without any knowledge of the network — not even
// its size. Where the standard algorithm cycles broadcast probabilities
// 2^-1..2^-⌈log n⌉ (which requires knowing n to size the phase), this
// variant sweeps growing epochs — the e-th epoch uses probabilities
// 2^-1..2^-e — capped at 62, which covers every representable n. The
// growing prefix makes early progress cheap while the informed sets are
// small; once the cap is reached this is exactly Decay with phase length
// 62, so the rounds bound is O((D + log n)·max(log n, 62)/(1-p)): the
// Lemma 6/9 guarantee for every practical n, at a 62/⌈log n⌉ constant
// overhead that the package tests measure. (A schedule with o(log n)
// overhead without knowing n is a different research problem; this is the
// honest engineering trade.)
func decayUnknownN(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	return runSingle(top, cfg, r, p, unknownNPlan)
}

// decayUnknownNBatch is decayUnknownN's lockstep twin.
func decayUnknownNBatch(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Outcome, error) {
	return runSingleBatch(top, cfg, rnds, p, unknownNPlan)
}

func unknownNPlan(top graph.Topology, cfg radio.Config, p ScheduleParams) (int, scheduleFactory, error) {
	g := top.G
	return resolveMaxRounds(p.Options, g.N(), g.Eccentricity(top.Source), cfg), unknownNSchedule(), nil
}
