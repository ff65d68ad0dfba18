package broadcast

import (
	"noisyradio/internal/gbst"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
)

// fastbcSchedule builds the FASTBC schedule over a GBST: odd rounds run a
// Decay step, even round 2t rides the non-interfering wave (an informed
// fast node at level l with rank r broadcasts iff t ≡ l - 6r mod 6·rmax).
// The bucket and skip tables are built once per plan and shared across
// trials; the closure is stateless.
func fastbcSchedule(g *graph.Graph, tree *gbst.Tree) scheduleFactory {
	phaseLen := decayPhaseLen(g.N())
	skips := decaySkips(phaseLen)
	buckets, period := waveBuckets(g, tree, 1) // blockSize 1: slot = level - 6·rank

	sched := func(m *singleRunner, round int) {
		if round%2 == 1 { // slow transmission round: Decay step
			t := (round - 1) / 2
			m.DecayStep(skips[t%phaseLen])
			return
		}
		// Fast transmission round 2t.
		t := round / 2
		for _, v := range buckets[t%period] {
			if m.Informed(v) {
				m.Mark(v)
			}
		}
	}
	return func() scheduleFunc { return sched }
}

// fastbcPlan plans the known-topology, diameter-linear broadcast
// algorithm of Gąsieniec, Peleg and Xin [22] (Section 3.4.2).
//
// A GBST is built from the source. Odd-numbered rounds run a standard Decay
// step over all informed nodes (pushing the message across slow edges);
// during even-numbered round 2t, an informed fast node at level l with rank
// r broadcasts iff t ≡ l - 6r (mod 6·rmax), which rides the message along
// fast stretches as a non-interfering wave.
//
// In the faultless model FASTBC completes in D + O(log²n) rounds (Lemma 8).
// Under sender or receiver faults its round-counting wave breaks and the
// expected time on a path degrades to Θ(p/(1-p)·D·log n + D/(1-p))
// (Lemma 10) — the deterioration this repository's experiment E4 measures.
func fastbcPlan(top graph.Topology, cfg radio.Config, p ScheduleParams) (int, scheduleFactory, error) {
	g := top.G
	tree, err := gbst.Build(g, top.Source)
	if err != nil {
		return 0, nil, err
	}
	return resolveMaxRounds(p.Options, g.N(), tree.Depth, cfg), fastbcSchedule(g, tree), nil
}
