package broadcast

import (
	"fmt"
	"math/bits"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// starRouting runs the adaptive routing schedule of Lemma 15 on the star
// topology with p.Leaves leaves: the source broadcasts message m₁ until
// every leaf has received it, then m₂, and so on up to m_K. Under receiver faults with constant p this needs
// Θ(k log n) rounds — the routing side of the Θ(log n) star coding gap
// (Theorem 17). Adaptivity here is the oracle adaptivity of Definition 14:
// the schedule observes exactly which leaves have received which messages.
func starRouting(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	leaves, k := p.Leaves, p.K
	if leaves < 1 || k < 1 {
		return Outcome{}, fmt.Errorf("broadcast: star routing needs leaves >= 1 and k >= 1, got (%d,%d)", leaves, k)
	}
	maxRounds := p.Options.MaxRounds
	if maxRounds <= 0 {
		maxRounds = starDefaultMaxRounds(leaves, k, cfg)
	}
	return hubRouting(graph.Star(leaves), cfg, r, k, maxRounds)
}

// hubRouting is starRouting's loop on a hub topology: node 0 is the only
// broadcaster and every other node is a leaf it reaches directly — a
// star, or the single link as its one-leaf case. It runs until every leaf
// holds all k messages or maxRounds rounds have passed.
func hubRouting(top graph.Topology, cfg radio.Config, r *rng.Stream, k, maxRounds int) (Outcome, error) {
	net, err := radio.New[struct{}](top.G, cfg, r)
	if err != nil {
		return Outcome{}, err
	}
	n := top.G.N()
	leaves := n - 1
	// Only the hub ever broadcasts: the schedule is one constant bitset,
	// passed to StepSet unchanged every round.
	tx := bitset.New(n)
	tx.Set(0)
	// Every reception carries the hub's current message, so the runner
	// reads receivers, never packets. StepSet only adds receivers to its
	// rx set, so held, cleared when the message advances, is exactly the
	// set of leaves holding the current message.
	payload := make([]struct{}, n)
	held := bitset.New(n)
	current := int32(0)
	round := 0
	for ; round < maxRounds && current < int32(k); round++ {
		net.StepSet(tx, payload, held, nil)
		if held.Count() == leaves {
			current++
			held.Reset()
		}
	}
	return Outcome{
		Rounds:  round,
		Success: current == int32(k),
		Done:    doneCountStar(current, k, leaves, leaves-held.Count()),
		Channel: net.Stats(),
	}, nil
}

// doneCountStar reports how many leaves hold all k messages at termination:
// all of them on success, otherwise none (the last message is still in
// flight on some leaves, and order statistics make partial accounting
// uninformative).
func doneCountStar(current int32, k, leaves, missing int) int {
	if current == int32(k) {
		return leaves + 1
	}
	if current == int32(k)-1 {
		return leaves - missing + 1
	}
	return 1
}

// starCoding runs the coding schedule of Lemma 16 on the star topology: the
// source broadcasts a fresh Reed–Solomon coded packet every round; by the
// MDS property any k distinct packets let a leaf reconstruct all k
// messages, so a leaf is done once it has received k packets. Θ(k) rounds
// suffice for constant p — the coding side of Theorem 17.
//
// The simulation tracks packet counts rather than moving real RS payloads.
// The package tests replay this schedule with evaluation-form RS shards
// over GF(2^8) and decode them exactly with rlnc.Decoder: every leaf's
// decoder reaches full rank at exactly its k-th reception.
func starCoding(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	leaves, k := p.Leaves, p.K
	if leaves < 1 || k < 1 {
		return Outcome{}, fmt.Errorf("broadcast: star coding needs leaves >= 1 and k >= 1, got (%d,%d)", leaves, k)
	}
	maxRounds := p.Options.MaxRounds
	if maxRounds <= 0 {
		maxRounds = starDefaultMaxRounds(leaves, k, cfg)
	}
	return hubCoding(graph.Star(leaves), cfg, r, k, maxRounds)
}

// hubCoding is starCoding's loop on a hub topology (see hubRouting): it
// runs until every leaf holds k distinct coded packets or maxRounds
// rounds have passed.
func hubCoding(top graph.Topology, cfg radio.Config, r *rng.Stream, k, maxRounds int) (Outcome, error) {
	net, err := radio.New[struct{}](top.G, cfg, r)
	if err != nil {
		return Outcome{}, err
	}
	n := top.G.N()
	leaves := n - 1
	tx := bitset.New(n)
	tx.Set(0)
	// Every round's packet is globally fresh, so a leaf's receptions are
	// its distinct packets: the runner counts receivers off rx and never
	// reads a packet.
	rx := bitset.New(n)
	payload := make([]struct{}, n)

	received := make([]int32, n) // distinct coded packets held per leaf
	done := 0
	round := 0
	for ; round < maxRounds && done < leaves; round++ {
		net.StepSet(tx, payload, rx, nil)
		rxw := rx.Words()
		lo, hi := rx.NonzeroRange()
		for wi := lo; wi < hi; wi++ {
			for w := rxw[wi]; w != 0; w &= w - 1 {
				v := wi*64 + bits.TrailingZeros64(w)
				received[v]++
				if received[v] == int32(k) {
					done++
				}
			}
		}
		rx.ResetWindow(lo, hi)
	}
	return Outcome{
		Rounds:  round,
		Success: done == leaves,
		Done:    done + 1,
		Channel: net.Stats(),
	}, nil
}

// starDefaultMaxRounds bounds both star schedules comfortably above their
// high-probability round counts.
func starDefaultMaxRounds(leaves, k int, cfg radio.Config) int {
	logn := graph.Log2Ceil(leaves) + 2
	slack := 1.0
	if cfg.Fault != radio.Faultless {
		slack = 1 / (1 - cfg.P)
	}
	return int(slack*float64(40*k*logn)) + 4000
}
