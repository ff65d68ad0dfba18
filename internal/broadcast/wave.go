package broadcast

import (
	"fmt"

	"noisyradio/internal/rng"
)

// WaveTraversalRounds simulates the exact random process analysed by
// Lemma 10: a message rides FASTBC's fast-transmission wave along a path of
// pathLen edges inside a network whose GBST has wave period `period` rounds
// (period = 6·rmax = Θ(log n)).
//
// Whenever the wave reaches the message's node, the node broadcasts; with
// probability 1-p the message advances one edge and the wave carries it to
// the next node in the next fast round, and with probability p the
// transmission is noise and the message waits a full period for the wave to
// come back. The function returns the number of fast rounds until the
// message crosses the whole path.
//
// Lemma 10 states E[rounds] = Θ(p/(1-p)·D·period + D/(1-p)); experiment E4
// sweeps p and period and fits this form.
func WaveTraversalRounds(pathLen, period int, p float64, r *rng.Stream) (int, error) {
	if pathLen < 0 {
		return 0, fmt.Errorf("broadcast: negative path length %d", pathLen)
	}
	if period < 1 {
		return 0, fmt.Errorf("broadcast: wave period %d < 1", period)
	}
	if !(p >= 0) || p >= 1 { // NaN fails every comparison
		return 0, fmt.Errorf("broadcast: fault probability %v outside [0,1)", p)
	}
	// One sampler for every edge, the same draws as r.Geometric(1-p)
	// per edge without its log1p per call.
	cross := rng.NewGeometric(1 - p)
	rounds := 0
	for x := 0; x < pathLen; x++ {
		// Geometric number of attempts to cross this edge; each failed
		// attempt costs a full period, the successful one costs one round.
		attempts := cross.Draw(r)
		rounds += (attempts-1)*period + 1
	}
	return rounds, nil
}

// WaveTraversalExpectation returns the closed-form expectation of the
// process simulated by WaveTraversalRounds, i.e. the Lemma 10 bound with
// explicit constants: D·(1 + (p/(1-p))·period).
func WaveTraversalExpectation(pathLen, period int, p float64) float64 {
	return float64(pathLen) * (1 + p/(1-p)*float64(period))
}

// RepetitionWaveRounds simulates the naive robustification discussed in
// Section 4.1 before Robust FASTBC is introduced: repeat every fast-wave
// slot `repeat` times, slowing the wave by a factor of `repeat` but
// dropping the per-visit failure probability to p^repeat. A node whose
// whole visit fails waits period·repeat rounds for the slowed wave to
// return.
//
// Sweeping `repeat` exposes the paper's reasoning: repeat = Θ(log n) gives
// O(D log n) (no better than Decay), repeat = Θ(log log n) gives
// O(D log log n), and only the block-wave design of Robust FASTBC reaches
// O(D) — experiment A2.
func RepetitionWaveRounds(pathLen, period, repeat int, p float64, r *rng.Stream) (int, error) {
	if pathLen < 0 {
		return 0, fmt.Errorf("broadcast: negative path length %d", pathLen)
	}
	if period < 1 || repeat < 1 {
		return 0, fmt.Errorf("broadcast: period %d and repeat %d must be >= 1", period, repeat)
	}
	if !(p >= 0) || p >= 1 { // NaN fails every comparison
		return 0, fmt.Errorf("broadcast: fault probability %v outside [0,1)", p)
	}
	// One coin, many draws: the integer-threshold sampler replaces the
	// per-draw float compare (bit-identical to r.Bool(p) by test).
	coin := rng.NewBernoulli(p)
	rounds := 0
	for x := 0; x < pathLen; x++ {
		// One visit = `repeat` transmissions; it succeeds unless all fail.
		for {
			success := false
			for i := 0; i < repeat; i++ {
				if !coin.Draw(r) {
					success = true
					break
				}
			}
			rounds += repeat
			if success {
				break
			}
			rounds += (period - 1) * repeat // wait for the slowed wave to return
		}
	}
	return rounds, nil
}

// RepetitionWaveExpectation is the closed form of RepetitionWaveRounds:
// per edge, repeat·(1 + q/(1-q)·period) rounds where q = p^repeat.
func RepetitionWaveExpectation(pathLen, period, repeat int, p float64) float64 {
	q := 1.0
	for i := 0; i < repeat; i++ {
		q *= p
	}
	return float64(pathLen) * float64(repeat) * (1 + q/(1-q)*float64(period))
}
