package broadcast

import (
	"fmt"
	"math"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// Appendix A: schedules on the single-link topology (two nodes, one edge).
// Together they exhibit a Θ(log k) coding gap against non-adaptive routing
// (Lemmas 29–31) that collapses to Θ(1) once routing may adapt (Lemmas
// 32–33).

// DefaultSingleLinkRepeats returns the per-message repetition count the
// Lemma 29 schedule needs for failure probability <= 1/k: the smallest r
// with k·p^r <= 1/k, i.e. ⌈2·ln k / ln(1/p)⌉.
func DefaultSingleLinkRepeats(k int, p float64) int {
	if k < 2 || p <= 0 {
		return 1
	}
	r := int(math.Ceil(2 * math.Log(float64(k)) / math.Log(1/p)))
	if r < 1 {
		r = 1
	}
	return r
}

// resolveRepeats applies the Lemma 29 default repetition count to the
// zero value; negative values pass through so the schedule's own
// validation rejects them.
func resolveRepeats(p ScheduleParams, cfg radio.Config) int {
	if p.Repeats != 0 {
		return p.Repeats
	}
	return DefaultSingleLinkRepeats(p.K, cfg.P)
}

// singleLinkNonAdaptive runs the non-adaptive routing schedule of Lemma 29:
// the source transmits each of the k messages exactly `repeats` times
// (p.Repeats, or the Lemma 29 default when zero), deaf to the channel. The run succeeds iff every message is received at
// least once; the schedule always uses exactly k·repeats rounds. Its
// throughput is Θ(1/log k) at the repetition count required for failure
// probability 1/k.
func singleLinkNonAdaptive(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	k, repeats := p.K, resolveRepeats(p, cfg)
	if k < 1 || repeats < 1 {
		return Outcome{}, fmt.Errorf("broadcast: single-link non-adaptive needs k >= 1 and repeats >= 1, got (%d,%d)", k, repeats)
	}
	top := graph.SingleLink()
	net, err := radio.New[int32](top.G, cfg, r)
	if err != nil {
		return Outcome{}, err
	}
	// Only the source broadcasts: one constant set, passed to StepSet
	// unchanged every round.
	tx := bitset.New(2)
	tx.Set(0)
	payload := []int32{0, 0}
	got := make([]bool, k)
	received := 0
	for m := 0; m < k; m++ {
		payload[0] = int32(m)
		for rep := 0; rep < repeats; rep++ {
			net.StepSet(tx, payload, nil, func(d radio.Delivery[int32]) {
				if !got[d.Payload] {
					got[d.Payload] = true
					received++
				}
			})
		}
	}
	done := 1
	if received == k {
		done = 2
	}
	return Outcome{
		Rounds:  k * repeats,
		Success: received == k,
		Done:    done,
		Channel: net.Stats(),
	}, nil
}

// singleLinkAdaptive runs the adaptive routing (ARQ) schedule of Lemma 32:
// the source retransmits each message until the receiver confirms it, then
// moves on. Expected k/(1-p) rounds — constant throughput, erasing the
// single-link coding gap. It is star routing's loop with one leaf.
func singleLinkAdaptive(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	k := p.K
	if k < 1 {
		return Outcome{}, fmt.Errorf("broadcast: single-link adaptive needs k >= 1, got %d", k)
	}
	maxRounds := p.Options.MaxRounds
	if maxRounds <= 0 {
		maxRounds = singleLinkDefaultMaxRounds(k, cfg)
	}
	return hubRouting(graph.SingleLink(), cfg, r, k, maxRounds)
}

// singleLinkCoding runs the coding schedule of Lemma 30: the source
// transmits a fresh Reed–Solomon packet every round; the receiver decodes
// after any k receptions (MDS property). Expected k/(1-p) rounds —
// constant throughput without any feedback. It is star coding's loop with
// one leaf.
func singleLinkCoding(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	k := p.K
	if k < 1 {
		return Outcome{}, fmt.Errorf("broadcast: single-link coding needs k >= 1, got %d", k)
	}
	maxRounds := p.Options.MaxRounds
	if maxRounds <= 0 {
		maxRounds = singleLinkDefaultMaxRounds(k, cfg)
	}
	return hubCoding(graph.SingleLink(), cfg, r, k, maxRounds)
}

func singleLinkDefaultMaxRounds(k int, cfg radio.Config) int {
	slack := 1.0
	if cfg.Fault != radio.Faultless {
		slack = 1 / (1 - cfg.P)
	}
	return int(float64(20*k)*slack) + 2000
}
