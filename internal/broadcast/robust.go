package broadcast

import (
	"noisyradio/internal/gbst"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
)

// RobustParams tunes Robust FASTBC. The zero value selects the paper's
// parameterisation.
type RobustParams struct {
	// BlockSize is S = Θ(log log n): fast stretches are cut into blocks of
	// S consecutive levels. 0 selects max(1, ⌈log₂(⌈log₂ n⌉+1)⌉) + 1.
	BlockSize int
	// RoundMult is the constant c: each block broadcasts for c·S
	// even-numbered rounds before the wave advances. 0 selects a
	// noise-aware default: crossing one level costs 3/(1-p) even rounds in
	// expectation (one broadcast slot every 3 even rounds, each succeeding
	// with probability 1-p), so c must exceed 3/(1-p) for a message to
	// clear an S-level block within its c·S-round window.
	RoundMult int
}

func (p RobustParams) withDefaults(n int, cfg radio.Config) RobustParams {
	out := p
	if out.BlockSize <= 0 {
		out.BlockSize = graph.Log2Ceil(graph.Log2Ceil(n)+1) + 1
	}
	if out.RoundMult <= 0 {
		out.RoundMult = 5
		if cfg.Fault != radio.Faultless {
			if c := int(5/(1-cfg.P)) + 1; c > out.RoundMult {
				out.RoundMult = c
			}
		}
	}
	return out
}

// waveBuckets buckets a GBST's fast nodes by wave slot
// (⌊level/blockSize⌋ - 6·rank) mod 6·rmax, so a fast round only touches
// the nodes scheduled for it. blockSize 1 gives the plain FASTBC wave
// (slot = level - 6·rank); larger sizes give Robust FASTBC's block wave.
// This is the single definition of the slot formula — the FASTBC and
// Robust FASTBC schedules and the RLNC pattern driver all derive their
// buckets here, so they cannot drift apart.
func waveBuckets(g *graph.Graph, tree *gbst.Tree, blockSize int) (buckets [][]int32, period int) {
	period = 6 * tree.MaxRank
	buckets = make([][]int32, period)
	for v := 0; v < g.N(); v++ {
		if !tree.IsFast(v) {
			continue
		}
		s := (int(tree.Level[v])/blockSize - 6*int(tree.Rank[v])) % period
		if s < 0 {
			s += period
		}
		buckets[s] = append(buckets[s], int32(v))
	}
	return buckets, period
}

// robustSchedule builds the Robust FASTBC block-wave schedule over a GBST
// (see robustPlan). The bucket and skip tables are built once per plan
// and shared across trials; the closure is stateless.
func robustSchedule(g *graph.Graph, tree *gbst.Tree, pr RobustParams) scheduleFactory {
	phaseLen := decayPhaseLen(g.N())
	skips := decaySkips(phaseLen)
	buckets, period := waveBuckets(g, tree, pr.BlockSize)
	levels := tree.Level

	cS := pr.RoundMult * pr.BlockSize
	sched := func(m *singleRunner, round int) {
		if round%2 == 1 { // slow transmission round: Decay step
			t := (round - 1) / 2
			m.DecayStep(skips[t%phaseLen])
			return
		}
		t := round
		active := (t / 2 / cS) % period
		mod3 := int32(t % 3)
		for _, v := range buckets[active] {
			if levels[v]%3 == mod3 && m.Informed(v) {
				m.Mark(v)
			}
		}
	}
	return func() scheduleFunc { return sched }
}

// robustPlan plans the paper's new single-message broadcast algorithm
// (Section 4.1), which restores diameter-linearity under noise:
// O(D + log n·log log n·(log n + log 1/δ)) rounds with failure probability
// at most δ under sender or receiver faults (Theorem 11). p.Robust tunes
// it.
//
// As in FASTBC a GBST is built from the source and odd-numbered rounds run
// a standard Decay step. Fast stretches are partitioned into blocks of
// S = Θ(log log n) consecutive levels. During even-numbered round t, an
// informed fast node at level l with rank r broadcasts iff
//
//	⌊l/S⌋ - 6r ≡ ⌊(t/2)/(c·S)⌋ (mod 6·rmax)   and   l ≡ t (mod 3).
//
// The first condition makes a wave of *blocks* sweep each stretch, giving a
// message c·S ≈ Θ(log log n) chances to cross each block before the wave
// moves on; the mod-3 condition prevents same-stretch self-collisions on
// the BFS tree. Failing all c·S attempts merely parks the message until the
// wave returns 6·rmax block-slots later, which is where the log log n
// (rather than log n) multiplicative overhead of Lemma 10 disappears.
func robustPlan(top graph.Topology, cfg radio.Config, p ScheduleParams) (int, scheduleFactory, error) {
	g := top.G
	tree, err := gbst.Build(g, top.Source)
	if err != nil {
		return 0, nil, err
	}
	pr := p.Robust.withDefaults(g.N(), cfg)
	return resolveMaxRounds(p.Options, g.N(), tree.Depth, cfg), robustSchedule(g, tree, pr), nil
}
