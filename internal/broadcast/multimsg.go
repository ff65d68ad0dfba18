package broadcast

import (
	"fmt"

	"noisyradio/internal/bitset"
	"noisyradio/internal/gbst"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rlnc"
	"noisyradio/internal/rng"
)

// RLNCPattern selects which single-message algorithm's broadcast pattern
// drives the coded multi-message broadcast (Section 4.2).
type RLNCPattern int

const (
	// RLNCDecay drives RLNC with Decay's pattern: Lemma 12, k messages in
	// O(D log n + k log n + log² n) rounds, throughput Ω(1/log n).
	RLNCDecay RLNCPattern = iota + 1
	// RLNCRobustFASTBC drives RLNC with Robust FASTBC's pattern: Lemma 13,
	// k messages in O(D + k log n log log n + log² n log log n) rounds,
	// throughput Ω(1/(log n log log n)).
	RLNCRobustFASTBC
)

// String returns the pattern name.
func (p RLNCPattern) String() string {
	switch p {
	case RLNCDecay:
		return "rlnc-decay"
	case RLNCRobustFASTBC:
		return "rlnc-robust-fastbc"
	default:
		return fmt.Sprintf("RLNCPattern(%d)", int(p))
	}
}

// RandomMessages draws k uniformly random messages of payloadLen bytes —
// the paper's O(log nk)-bit messages.
func RandomMessages(k, payloadLen int, r *rng.Stream) [][]byte {
	msgs := make([][]byte, k)
	for i := range msgs {
		msgs[i] = make([]byte, payloadLen)
		r.Bytes(msgs[i])
	}
	return msgs
}

// sequentialDecayRouting broadcasts p.K messages one after another with
// the Decay algorithm — the naive routing baseline the coded schedules of
// Lemmas 12–13 are compared against. Its throughput is Θ(1/(D log n)),
// asymptotically worse than both coding (Ω(1/log n)) and the pipelined
// routing of Lemma 21 (Ω(1/log² n)). The trial plans Decay once and runs
// its p.K executions on that plan, each on a fresh network.
func sequentialDecayRouting(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	if err := validateTopology(top); err != nil {
		return Outcome{}, err
	}
	if p.K < 1 {
		return Outcome{}, fmt.Errorf("broadcast: sequential routing needs k >= 1, got %d", p.K)
	}
	maxRounds, factory, err := decayPlan(top, cfg, p)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Success: true, Done: top.G.N()}
	for i := 0; i < p.K; i++ {
		res, err := runTrial(top, cfg, r, p.Options.Trace, maxRounds, factory())
		if err != nil {
			return Outcome{}, err
		}
		out.Rounds += res.Rounds
		out.Channel.Rounds += res.Channel.Rounds
		out.Channel.Broadcasts += res.Channel.Broadcasts
		out.Channel.Deliveries += res.Channel.Deliveries
		out.Channel.Collisions += res.Channel.Collisions
		out.Channel.SenderFaults += res.Channel.SenderFaults
		out.Channel.ReceiverFaults += res.Channel.ReceiverFaults
		if !res.Success {
			out.Success = false
			out.Done = res.Done
			return out, nil
		}
	}
	return out, nil
}

// randomRLNC is the registry's RLNC trial: it draws p.K random messages of
// p.PayloadLen bytes from the trial stream, then broadcasts them with
// RLNCBroadcast under p.Pattern.
func randomRLNC(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	if p.K < 1 {
		return Outcome{}, fmt.Errorf("broadcast: rlnc needs K >= 1, got %d", p.K)
	}
	msgs := RandomMessages(p.K, p.payloadLen(), r)
	out, _, err := RLNCBroadcast(top, cfg, msgs, p.pattern(), r)
	return out, err
}

// RLNCBroadcast broadcasts the given messages from the source with random
// linear network coding, using the given pattern to select broadcasters
// (Lemmas 12 and 13). A node participates once its subspace is non-empty
// and every transmission is a fresh random combination of what the node
// holds; the run succeeds when every node's decoder reaches rank k.
//
// All messages must share one non-zero length. The Robust FASTBC pattern
// runs with the default RobustParams, and the run is capped at the
// single-message default plus 80·k·(⌈log₂ n⌉+2) rounds. It returns the
// outcome together with a witness decode from a non-source node, for
// end-to-end verification; the registry's "rlnc" entry runs it over
// random messages.
func RLNCBroadcast(top graph.Topology, cfg radio.Config, messages [][]byte, pattern RLNCPattern, r *rng.Stream) (Outcome, [][]byte, error) {
	if err := validateTopology(top); err != nil {
		return Outcome{}, nil, err
	}
	k := len(messages)
	if k < 1 {
		return Outcome{}, nil, fmt.Errorf("broadcast: need at least one message")
	}
	payloadLen := len(messages[0])
	if payloadLen == 0 {
		return Outcome{}, nil, fmt.Errorf("broadcast: empty message payloads")
	}
	g := top.G
	n := g.N()

	net, err := radio.New[rlnc.Packet](g, cfg, r)
	if err != nil {
		return Outcome{}, nil, err
	}
	decoders := make([]*rlnc.Decoder, n)
	for v := range decoders {
		decoders[v] = rlnc.NewDecoder(k, payloadLen)
	}
	src, err := rlnc.SourceDecoder(messages)
	if err != nil {
		return Outcome{}, nil, err
	}
	decoders[top.Source] = src

	// Pattern state: "active" nodes (non-empty subspace) play the role of
	// informed nodes in the single-message algorithms.
	active := bitset.New(n)
	active.Set(top.Source)
	activeList := []int32{int32(top.Source)}
	decoded := 1 // source counts as done
	doneSet := bitset.New(n)
	doneSet.Set(top.Source)

	var tree *gbst.Tree
	var buckets [][]int32
	var period, cS int
	var levels []int32
	if pattern == RLNCRobustFASTBC {
		tree, err = gbst.Build(g, top.Source)
		if err != nil {
			return Outcome{}, nil, err
		}
		pr := RobustParams{}.withDefaults(n, cfg)
		cS = pr.RoundMult * pr.BlockSize
		buckets, period = waveBuckets(g, tree, pr.BlockSize)
		levels = tree.Level
	} else if pattern != RLNCDecay {
		return Outcome{}, nil, fmt.Errorf("broadcast: unknown RLNC pattern %d", int(pattern))
	}

	diam := g.Eccentricity(top.Source)
	maxRounds := defaultMaxRounds(n, diam, cfg) + 80*k*(graph.Log2Ceil(n)+2)
	phaseLen := decayPhaseLen(n)
	skips := decaySkips(phaseLen)

	tx := bitset.New(n)
	payload := make([]rlnc.Packet, n)
	var marked []int32
	mark := func(v int32) {
		if !tx.Test(int(v)) {
			tx.Set(int(v))
			marked = append(marked, v)
		}
	}
	var picks []int32 // Decay's positions in activeList, reused across rounds
	decaySample := func(skip rng.Geometric) {
		picks = skip.Positions(r, len(activeList), picks[:0])
		for _, pos := range picks {
			mark(activeList[pos])
		}
	}

	round := 0
	for ; round < maxRounds && decoded < n; round++ {
		switch pattern {
		case RLNCDecay:
			decaySample(skips[round%phaseLen])
		case RLNCRobustFASTBC:
			if round%2 == 1 {
				t := (round - 1) / 2
				decaySample(skips[t%phaseLen])
			} else {
				t := round
				activeBlock := (t / 2 / cS) % period
				mod3 := int32(t % 3)
				for _, v := range buckets[activeBlock] {
					if levels[v]%3 == mod3 && active.Test(int(v)) {
						mark(v)
					}
				}
			}
		}
		for _, v := range marked {
			pkt, ok := decoders[v].RandomCombination(r)
			if !ok {
				tx.Clear(int(v))
				continue
			}
			payload[v] = pkt
		}
		net.StepSet(tx, payload, nil, func(d radio.Delivery[rlnc.Packet]) {
			dec := decoders[d.To]
			wasDecodable := dec.CanDecode()
			innovative, insErr := dec.InsertPacket(d.Payload.Clone())
			if insErr != nil {
				// Cannot happen: packet shapes are fixed by construction.
				panic(insErr)
			}
			if innovative && !active.Test(d.To) {
				active.Set(d.To)
				activeList = append(activeList, int32(d.To))
			}
			if !wasDecodable && dec.CanDecode() && !doneSet.Test(d.To) {
				doneSet.Set(d.To)
				decoded++
			}
		})
		for _, v := range marked {
			tx.Clear(int(v))
		}
		marked = marked[:0]
	}

	res := Outcome{
		Rounds:  round,
		Success: decoded == n,
		Done:    decoded,
		Channel: net.Stats(),
	}
	if !res.Success {
		return res, nil, nil
	}
	// Return one non-source node's decode for verification (or the source's
	// for n == 1).
	verify := top.Source
	if n > 1 {
		verify = (top.Source + 1) % n
	}
	got, err := decoders[verify].Decode()
	if err != nil {
		return res, nil, fmt.Errorf("broadcast: internal: decode after success: %w", err)
	}
	return res, got, nil
}
