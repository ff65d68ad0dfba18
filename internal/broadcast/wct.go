package broadcast

import (
	"fmt"
	"math/bits"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// Section 5.1.2: schedules on the worst-case topology (WCT). The senders
// start holding all k messages, matching the bipartite framing of Lemma 20
// (the source-to-senders hop is a complete star and never the bottleneck).
//
// Both schedules sweep broadcast densities 2^-j across the construction's
// scales: when the density matches a scale's neighbourhood size 2^j, a
// cluster of that scale has a constant probability (~1/e) of a
// collision-free reception, while other scales see exponentially little —
// that is Lemma 18's O(1/log n) ceiling in action.

// wctRouting runs the adaptive routing schedule behind Lemmas 19/21/22:
// messages are delivered one at a time; the schedule cycles the broadcast
// density through the scales until every cluster member holds the current
// message, then advances. With receiver faults each cluster behaves like
// the Lemma 15 star — every member individually needs a fault-free
// reception — so the cost is Θ(log² n) rounds per message and the
// throughput is Θ(1/log² n).
func wctRouting(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	w, k := p.WCT, p.K
	if err := validateWCTArgs(w, k); err != nil {
		return Outcome{}, err
	}
	net, err := radio.New[struct{}](w.G, cfg, r)
	if err != nil {
		return Outcome{}, err
	}
	scales := graph.Log2Floor(len(w.Senders))
	maxRounds := p.Options.MaxRounds
	if maxRounds <= 0 {
		maxRounds = wctDefaultMaxRounds(w, k, cfg, scales*scales)
	}

	n := w.G.N()
	tx := bitset.New(n)
	coins := scaleCoins(scales)
	members := 0
	for _, c := range w.Clusters {
		members += len(c)
	}

	// Every sender carries the current message, so the runner reads
	// receivers, never packets. StepSet only adds receivers to held, so
	// held, cleared when the message advances, is every node that has
	// heard the current message. Its members are the ids from firstMember
	// on; below lie the source and the senders.
	payload := make([]struct{}, n)
	firstMember := 1 + len(w.Senders)
	held := bitset.New(n)
	current := int32(0)
	round := 0
	for ; round < maxRounds && current < int32(k); round++ {
		markSenderSample(w, r, tx, coins[1+round%scales])
		net.StepSet(tx, payload, held, nil)
		clearSenders(w, tx)
		if countFrom(held, firstMember) == members {
			current++
			held.Reset()
		}
	}
	return Outcome{
		Rounds:  round,
		Success: current == int32(k),
		Done:    wctDoneCount(w, current, k, members-countFrom(held, firstMember)),
		Channel: net.Stats(),
	}, nil
}

// wctCoding runs the coding schedule behind Lemma 23: every sender
// broadcast is a globally fresh coded packet (Reed–Solomon black box — any
// k distinct packets decode all k messages), densities cycle through the
// scales as in wctRouting, and a cluster member is done after k receptions.
// Each member needs Θ(k) fault-free receptions instead of Θ(k log n), so
// the throughput is Θ(1/log n) — a Θ(log n) worst-case gap over routing
// (Theorem 24).
func wctCoding(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	w, k := p.WCT, p.K
	if err := validateWCTArgs(w, k); err != nil {
		return Outcome{}, err
	}
	net, err := radio.New[struct{}](w.G, cfg, r)
	if err != nil {
		return Outcome{}, err
	}
	scales := graph.Log2Floor(len(w.Senders))
	maxRounds := p.Options.MaxRounds
	if maxRounds <= 0 {
		maxRounds = wctDefaultMaxRounds(w, k, cfg, scales)
	}

	n := w.G.N()
	tx := bitset.New(n)
	rx := bitset.New(n)
	coins := scaleCoins(scales)
	payload := make([]struct{}, n)
	members := 0
	for _, c := range w.Clusters {
		members += len(c)
	}

	firstMember := 1 + len(w.Senders)
	received := make([]int32, n)
	done := 0
	round := 0
	for ; round < maxRounds && done < members; round++ {
		markSenderSample(w, r, tx, coins[1+round%scales])
		// Every broadcast is a fresh packet, distinct per (sender, round)
		// pair, so a member never receives a duplicate: its receptions are
		// its distinct packets, and the round's receivers in rx are all
		// the runner needs to count.
		net.StepSet(tx, payload, rx, nil)
		rxw := rx.Words()
		lo, hi := rx.NonzeroRange()
		for wi := lo; wi < hi; wi++ {
			for x := rxw[wi]; x != 0; x &= x - 1 {
				v := wi*64 + bits.TrailingZeros64(x)
				if v < firstMember {
					continue
				}
				received[v]++
				if received[v] == int32(k) {
					done++
				}
			}
		}
		rx.ResetWindow(lo, hi)
		clearSenders(w, tx)
	}
	return Outcome{
		Rounds:  round,
		Success: done == members,
		Done:    done + 1 + len(w.Senders),
		Channel: net.Stats(),
	}, nil
}

// scaleCoins precomputes the per-scale Bernoulli samplers 2^-1..2^-scales
// (indexed by j), hoisting the float compare out of the per-sender,
// per-round draw; rng.Bernoulli is draw-for-draw identical to
// r.Bool(2^-j), so schedules are unchanged.
func scaleCoins(scales int) []rng.Bernoulli {
	coins := make([]rng.Bernoulli, scales+1)
	p := 1.0
	for j := 1; j <= scales; j++ {
		p /= 2
		coins[j] = rng.NewBernoulli(p)
	}
	return coins
}

// markSenderSample sets each sender to broadcast independently with the
// coin's probability (2^-j for the round's scale j).
func markSenderSample(w *graph.WCT, r *rng.Stream, tx *bitset.Set, coin rng.Bernoulli) {
	for _, s := range w.Senders {
		if coin.Draw(r) {
			tx.Set(int(s))
		}
	}
}

// countFrom returns how many members of s are lo or above; lo < s.Len().
func countFrom(s *bitset.Set, lo int) int {
	words := s.Words()
	c := bits.OnesCount64(words[lo>>6] >> (lo & 63))
	for _, x := range words[lo>>6+1:] {
		c += bits.OnesCount64(x)
	}
	return c
}

func clearSenders(w *graph.WCT, tx *bitset.Set) {
	for _, s := range w.Senders {
		tx.Clear(int(s))
	}
}

func wctDoneCount(w *graph.WCT, current int32, k, missing int) int {
	base := 1 + len(w.Senders)
	members := 0
	for _, c := range w.Clusters {
		members += len(c)
	}
	switch {
	case current == int32(k):
		return base + members
	case current == int32(k)-1:
		return base + members - missing
	default:
		return base
	}
}

func wctDefaultMaxRounds(w *graph.WCT, k int, cfg radio.Config, perMessage int) int {
	slack := 1.0
	if cfg.Fault != radio.Faultless {
		slack = 1 / (1 - cfg.P)
	}
	logn := graph.Log2Ceil(w.G.N()) + 2
	return int(slack*float64(60*k*perMessage)) + 200*logn*logn + 4000
}

func validateWCTArgs(w *graph.WCT, k int) error {
	if w == nil || w.G == nil {
		return fmt.Errorf("broadcast: wct schedule needs ScheduleParams.WCT")
	}
	if k < 1 {
		return fmt.Errorf("broadcast: WCT schedules need k >= 1, got %d", k)
	}
	if len(w.Senders) < 2 {
		return fmt.Errorf("broadcast: WCT has %d senders, need >= 2", len(w.Senders))
	}
	return nil
}
