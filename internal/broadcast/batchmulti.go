package broadcast

import (
	"fmt"
	"math/bits"

	"noisyradio/internal/bitset"
	"noisyradio/internal/gbst"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rlnc"
	"noisyradio/internal/rng"
)

// This file holds the trial-batched twins of the multi-message schedules
// that run on the caller's topology — pipelined batch routing, sequential
// Decay routing and RLNC — the only multi-message entries whose topology
// can resolve to the dense engine, where lockstep runs. Each runs one
// independent trial per stream in rnds, in lockstep over a pooled
// radio.BatchNetwork, with trial i draw-for-draw identical to the scalar
// twin applied to rnds[i].

// pipelinedBatchRoutingBatch is the trial-batched pipelinedBatchRouting.
// The BFS layer decomposition and the per-phase coins are built once and
// shared read-only across lanes.
func pipelinedBatchRoutingBatch(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Outcome, error) {
	if err := validateTopology(top); err != nil {
		return nil, err
	}
	k := p.K
	if k < 1 {
		return nil, fmt.Errorf("broadcast: pipelined batch routing needs k >= 1, got %d", k)
	}
	w := len(rnds)
	g := top.G
	n := g.N()
	layers := g.Layers(top.Source)
	level := g.BFS(top.Source)
	for v := 0; v < n; v++ {
		if level[v] == -1 {
			return nil, fmt.Errorf("broadcast: node %d unreachable from source", v)
		}
	}
	L := len(layers) - 1
	if L == 0 {
		out := make([]Outcome, w)
		for l := range out {
			out[l] = Outcome{Rounds: 0, Success: true, Done: n}
		}
		return out, nil
	}
	maxRounds := p.Options.MaxRounds
	if maxRounds <= 0 {
		maxRounds = pipelinedBatchDefaultMaxRounds(n, L, k, cfg)
	}
	phaseLen := decayPhaseLen(n)
	coins := decayCoins(phaseLen)

	tx := bitset.NewBlock(n, radio.MaxBatchWidth)
	payloads := make([][]int32, w)
	layerHave := make([][]int32, w)
	missing := make([][]int, w)
	gen := make([][]int32, w)
	marked := make([][]int32, w)
	lanes := make([]multiLane[int32], w)
	for l := range lanes {
		l := l
		rnd := rnds[l]
		payloads[l] = make([]int32, n)
		layerHave[l] = make([]int32, L+1)
		layerHave[l][0] = int32(k)
		missing[l] = make([]int, L+1)
		for i := 1; i <= L; i++ {
			missing[l][i] = len(layers[i])
		}
		gen[l] = make([]int32, n)
		lanes[l] = multiLane[int32]{
			begin: func(round int) {
				mod := round % 3
				coin := coins[(round/3)%phaseLen]
				for i := 0; i < L; i++ {
					if i%3 != mod || layerHave[l][i] <= layerHave[l][i+1] {
						continue
					}
					msg := layerHave[l][i+1]
					for _, v := range layers[i] {
						if coin.Draw(rnd) {
							tx.Set(l, int(v))
							payloads[l][v] = msg
							marked[l] = append(marked[l], v)
						}
					}
				}
			},
			deliver: func(d radio.Delivery[int32]) {
				lv := level[d.To]
				if level[d.From] != lv-1 {
					return // sideways or backwards reception; not the pipeline
				}
				if d.Payload != layerHave[l][lv] || gen[l][d.To] == layerHave[l][lv]+1 {
					return
				}
				gen[l][d.To] = layerHave[l][lv] + 1
				missing[l][lv]--
				if missing[l][lv] == 0 {
					layerHave[l][lv]++
					missing[l][lv] = len(layers[lv])
				}
			},
			after: func(round int) bool {
				for _, v := range marked[l] {
					tx.Clear(l, int(v))
				}
				marked[l] = marked[l][:0]
				return layerHave[l][L] >= int32(k)
			},
		}
	}
	return runMultiBatch(&idPool, g, cfg, rnds, maxRounds, tx, payloads, lanes,
		func(l, rounds int, ch radio.Stats) Outcome {
			done := 0
			for i := 0; i <= L; i++ {
				if layerHave[l][i] == int32(k) {
					done += len(layers[i])
				}
			}
			return Outcome{Rounds: rounds, Success: layerHave[l][L] == int32(k), Done: done, Channel: ch}
		})
}

// sequentialDecayRoutingBatch is the trial-batched sequentialDecayRouting:
// each lane runs its own sequence of k Decay broadcasts (with per-message
// informed-set resets and per-message round caps), all lanes stepping one
// shared batch network. Lanes sit at different message indices at any
// given lockstep round; that is fine, because the schedule depends only on
// lane-local state. At each message boundary the lane's draw-contract
// state is reset: the scalar path checks a fresh network out of the pool
// per Decay call, so the canonical draw sequence restarts there, and
// stateful contracts (DrawV3 bursts) must restart here too.
func sequentialDecayRoutingBatch(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Outcome, error) {
	if err := validateTopology(top); err != nil {
		return nil, err
	}
	k := p.K
	if k < 1 {
		return nil, fmt.Errorf("broadcast: sequential routing needs k >= 1, got %d", k)
	}
	w := len(rnds)
	g := top.G
	n := g.N()
	out := make([]Outcome, w)
	for l := range out {
		out[l] = Outcome{Success: true, Done: n}
	}
	if n == 1 {
		return out, nil // every Decay run completes in zero rounds
	}
	perMsgCap := resolveMaxRounds(p.Options, n, g.Eccentricity(top.Source), cfg)
	sched := decaySchedule(n)()

	net, err := sigPool.GetBatch(g, cfg, rnds)
	if err != nil {
		return nil, err
	}
	b := &batchRunner{
		net:   net,
		lanes: make([]batchLane, w),
		tx:    bitset.NewBlock(n, radio.MaxBatchWidth),
		rx:    bitset.NewBlock(n, radio.MaxBatchWidth),
	}
	localRound := make([]int, w) // round index within the lane's current message
	msgDone := make([]int, w)
	act := ^uint64(0) >> (64 - uint(w))
	for l := range b.lanes {
		informed := bitset.New(n)
		informed.Set(top.Source)
		b.lanes[l] = batchLane{informed: informed, informedList: []int32{int32(top.Source)}, rnd: rnds[l]}
	}
	for act != 0 {
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			sched(b.view(l), localRound[l])
		}
		net.StepBatch(b.tx, nil, b.rx, act, nil)
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			lane := &b.lanes[l]
			b.foldLane(l)
			localRound[l]++
			out[l].Rounds++
			switch {
			case len(lane.informedList) == n:
				msgDone[l]++
				if msgDone[l] == k {
					act &^= 1 << uint(l)
				} else {
					lane.informed.Reset()
					lane.informed.Set(top.Source)
					lane.informedList = lane.informedList[:0]
					lane.informedList = append(lane.informedList, int32(top.Source))
					localRound[l] = 0
					net.ResetLaneDraw(l)
				}
			case localRound[l] == perMsgCap:
				out[l].Success = false
				out[l].Done = len(lane.informedList)
				act &^= 1 << uint(l)
			}
		}
	}
	for l := range out {
		ch := net.LaneStats(l)
		out[l].Channel = ch
	}
	sigPool.PutBatch(net)
	return out, nil
}

// randomRLNCBatch is the trial-batched randomRLNC: lane i draws its
// messages from rnds[i] and broadcasts them identically to
// RLNCBroadcast(top, cfg, messages, p.Pattern, rnds[i], p.RLNC), minus the
// witness decode (which consumes no randomness).
func randomRLNCBatch(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Outcome, error) {
	k := p.K
	if k < 1 {
		return nil, fmt.Errorf("broadcast: rlnc needs K >= 1, got %d", k)
	}
	if err := validateTopology(top); err != nil {
		return nil, err
	}
	payloadLen, pattern, opts := p.payloadLen(), p.pattern(), p.RLNC
	w := len(rnds)
	g := top.G
	n := g.N()
	// Pattern structure, shared read-only across lanes.
	var buckets [][]int32
	var period, cS int
	var levels []int32
	phaseLen := decayPhaseLen(n)
	probs := decayProbabilities(phaseLen)
	if pattern == RLNCRobustFASTBC {
		tree, err := gbst.Build(g, top.Source)
		if err != nil {
			return nil, err
		}
		pr := opts.Robust.withDefaults(n, cfg)
		cS = pr.RoundMult * pr.BlockSize
		buckets, period = waveBuckets(g, tree, pr.BlockSize)
		levels = tree.Level
	} else if pattern != RLNCDecay {
		return nil, fmt.Errorf("broadcast: unknown RLNC pattern %d", int(pattern))
	}
	if n == 1 {
		// The source already holds every message: the scalar loop never
		// executes a round (decoded == n up front).
		out := make([]Outcome, w)
		for l := range out {
			out[l] = Outcome{Rounds: 0, Success: true, Done: 1}
		}
		return out, nil
	}

	diam := g.Eccentricity(top.Source)
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds(n, diam, cfg) + 80*k*(graph.Log2Ceil(n)+2)
	}

	tx := bitset.NewBlock(n, radio.MaxBatchWidth)
	payloads := make([][]rlnc.Packet, w)
	decoders := make([][]*rlnc.Decoder, w)
	active := make([]*bitset.Set, w)
	activeList := make([][]int32, w)
	doneSet := make([]*bitset.Set, w)
	decoded := make([]int, w)
	marked := make([][]int32, w)
	lanes := make([]multiLane[rlnc.Packet], w)
	for l := range lanes {
		l := l
		rnd := rnds[l]
		payloads[l] = make([]rlnc.Packet, n)
		decoders[l] = make([]*rlnc.Decoder, n)
		for v := range decoders[l] {
			decoders[l][v] = rlnc.NewDecoder(k, payloadLen)
		}
		src, err := rlnc.SourceDecoder(RandomMessages(k, payloadLen, rnd))
		if err != nil {
			return nil, err
		}
		decoders[l][top.Source] = src
		active[l] = bitset.New(n)
		active[l].Set(top.Source)
		activeList[l] = []int32{int32(top.Source)}
		decoded[l] = 1
		doneSet[l] = bitset.New(n)
		doneSet[l].Set(top.Source)

		mark := func(v int32) {
			if !tx.Test(l, int(v)) {
				tx.Set(l, int(v))
				marked[l] = append(marked[l], v)
			}
		}
		decaySample := func(p float64) {
			geometricVisit(rnd, len(activeList[l]), p, func(pos int) {
				mark(activeList[l][pos])
			})
		}
		lanes[l] = multiLane[rlnc.Packet]{
			begin: func(round int) {
				switch pattern {
				case RLNCDecay:
					decaySample(probs[round%phaseLen])
				case RLNCRobustFASTBC:
					if round%2 == 1 {
						t := (round - 1) / 2
						decaySample(probs[t%phaseLen])
					} else {
						t := round
						activeBlock := (t / 2 / cS) % period
						mod3 := int32(t % 3)
						for _, v := range buckets[activeBlock] {
							if levels[v]%3 == mod3 && active[l].Test(int(v)) {
								mark(v)
							}
						}
					}
				}
				for _, v := range marked[l] {
					pkt, ok := decoders[l][v].RandomCombination(rnd)
					if !ok {
						tx.Clear(l, int(v))
						continue
					}
					payloads[l][v] = pkt
				}
			},
			deliver: func(d radio.Delivery[rlnc.Packet]) {
				dec := decoders[l][d.To]
				wasDecodable := dec.CanDecode()
				innovative, insErr := dec.InsertPacket(d.Payload.Clone())
				if insErr != nil {
					// Cannot happen: packet shapes are fixed by construction.
					panic(insErr)
				}
				if innovative && !active[l].Test(d.To) {
					active[l].Set(d.To)
					activeList[l] = append(activeList[l], int32(d.To))
				}
				if !wasDecodable && dec.CanDecode() && !doneSet[l].Test(d.To) {
					doneSet[l].Set(d.To)
					decoded[l]++
				}
			},
			after: func(round int) bool {
				for _, v := range marked[l] {
					tx.Clear(l, int(v))
				}
				marked[l] = marked[l][:0]
				return decoded[l] >= n
			},
		}
	}
	return runMultiBatch(&rlncPool, g, cfg, rnds, maxRounds, tx, payloads, lanes,
		func(l, rounds int, ch radio.Stats) Outcome {
			return Outcome{Rounds: rounds, Success: decoded[l] == n, Done: decoded[l], Channel: ch}
		})
}
