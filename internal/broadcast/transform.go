package broadcast

import (
	"fmt"
	"math"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// Section 5.2: transformations from the faultless setting to the faulty
// setting (Lemmas 25 and 26), demonstrated on the pipelined path — the
// canonical multi-message schedule whose faultless routing throughput is
// 1/3 (one message crosses each edge every three rounds; nodes three hops
// apart broadcast simultaneously without interference).
//
// The transformed schedules below realise the lemmas' meta-round
// construction: each round of the faultless schedule becomes a meta-round
// of ⌈x/(1-p)·(1+η)⌉ rounds carrying x messages, so the throughput drops by
// exactly the (1-p) factor (up to η) that the lemmas predict.

// pathPipelineRouting runs the adaptive routing pipeline for p.K messages
// on a path with p.PathLen edges: node v broadcasts in rounds r with r ≡ v (mod 3) whenever
// it holds a message its successor lacks (oracle adaptivity, Definition
// 14). In the faultless model the throughput is 1/3; under sender or
// receiver faults the per-hop retransmissions reduce it to (1-p)/3 — the
// Lemma 25 achievability in its natural adaptive form.
func pathPipelineRouting(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	pathLen, k := p.PathLen, p.K
	if pathLen < 1 || k < 1 {
		return Outcome{}, fmt.Errorf("broadcast: path pipeline needs pathLen >= 1 and k >= 1, got (%d,%d)", pathLen, k)
	}
	top := graph.Path(pathLen + 1)
	net, err := radio.New[int32](top.G, cfg, r)
	if err != nil {
		return Outcome{}, err
	}
	maxRounds := p.Options.MaxRounds
	if maxRounds <= 0 {
		maxRounds = pipelineDefaultMaxRounds(pathLen, k, cfg)
	}
	n := top.G.N()
	// have[v] = number of messages node v holds; messages are delivered in
	// order, so a prefix count suffices.
	have := make([]int32, n)
	have[0] = int32(k)
	tx := bitset.New(n)
	payload := make([]int32, n)
	round := 0
	for ; round < maxRounds && have[n-1] < int32(k); round++ {
		mod := int32(round % 3)
		for v := 0; v < n-1; v++ {
			if int32(v)%3 == mod && have[v] > have[v+1] {
				tx.Set(v)
				payload[v] = have[v+1] // next message the successor lacks
			}
		}
		net.StepSet(tx, payload, nil, func(d radio.Delivery[int32]) {
			// In-order delivery: the payload is exactly have[d.To].
			if d.Payload == have[d.To] && d.From == d.To-1 {
				have[d.To]++
			}
		})
		tx.ResetWindow(tx.NonzeroRange())
	}
	done := 0
	for v := 0; v < n; v++ {
		if have[v] == int32(k) {
			done++
		}
	}
	return Outcome{
		Rounds:  round,
		Success: have[n-1] == int32(k),
		Done:    done,
		Channel: net.Stats(),
	}, nil
}

// metaRoundLen is the transformed schedule's meta-round length
// ⌈x/(1-p)·(1+η)⌉.
func metaRoundLen(batch int, cfg radio.Config, eta float64) int {
	q := 1.0
	if cfg.Fault != radio.Faultless {
		q = 1 - cfg.P
	}
	return int(math.Ceil(float64(batch) / q * (1 + eta)))
}

// transformedPathRouting runs the Lemma 25 transformation of the faultless
// path pipeline: each faultless round becomes a meta-round of
// ⌈x/(1-p)(1+η)⌉ rounds in which a scheduled node delivers its batch of x
// messages with per-message retransmission, then stays silent. Unlike
// pathPipelineRouting the *batch schedule* is fixed in advance (only the
// retransmissions adapt), exactly as in the lemma; a node that cannot
// finish its batch within the meta-round leaves a permanent gap, which is
// the exp(-Ω(xη²)) failure event of the proof. The batch is
// x = 4·⌈log₂(k·pathLen+2)⌉+8 messages (the lemmas need x = Ω(log nk)
// for the union bound) and the slack η = 0.25.
func transformedPathRouting(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	return transformedPath(cfg, r, p, false)
}

// transformedPathCoding runs the Lemma 26 transformation: as in
// transformedPathRouting, but within a meta-round the scheduled node
// transmits a stream of fresh Reed–Solomon packets coded over its batch of
// x messages, and the receiver reconstructs the batch from any x of them
// (MDS black box). No feedback is used at all, matching the lemma's
// coding setting.
func transformedPathCoding(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	return transformedPath(cfg, r, p, true)
}

func transformedPath(cfg radio.Config, r *rng.Stream, p ScheduleParams, coding bool) (Outcome, error) {
	pathLen, k := p.PathLen, p.K
	if pathLen < 1 || k < 1 {
		return Outcome{}, fmt.Errorf("broadcast: transformed path needs pathLen >= 1 and k >= 1, got (%d,%d)", pathLen, k)
	}
	batch := 4*graph.Log2Ceil(k*pathLen+2) + 8
	batches := (k + batch - 1) / batch
	mlen := metaRoundLen(batch, cfg, 0.25)

	top := graph.Path(pathLen + 1)
	net, err := radio.New[int32](top.G, cfg, r)
	if err != nil {
		return Outcome{}, err
	}
	n := top.G.N()
	// batchHave[v] = number of complete batches node v holds.
	batchHave := make([]int32, n)
	batchHave[0] = int32(batches)
	// progress[v] = per-edge (v → v+1) progress within the current
	// meta-round: messages delivered (routing) or packets received by the
	// successor (coding).
	progress := make([]int32, n)
	tx := bitset.New(n)
	payload := make([]int32, n)

	// The faultless pipeline takes 3·(batches + pathLen) rounds; each
	// becomes one meta-round. Run exactly that schedule (non-adaptive at
	// the meta level), as the lemma prescribes.
	metaRounds := 3 * (batches + pathLen)
	totalRounds := 0
	for T := 0; T < metaRounds; T++ {
		mod := int32(T % 3)
		// A node v scheduled in meta-round T forwards batch number
		// (T-v)/3 if it holds it; in prefix terms: forward batch
		// batchHave[v+1] when batchHave[v] > batchHave[v+1].
		for i := range progress {
			progress[i] = 0
		}
		for step := 0; step < mlen; step++ {
			tx.ResetWindow(tx.NonzeroRange())
			for v := 0; v < n-1; v++ {
				if int32(v)%3 != mod || batchHave[v] <= batchHave[v+1] {
					continue
				}
				if coding {
					tx.Set(v)
					payload[v] = int32(T*mlen + step) // fresh coded packet
				} else if progress[v] < int32(batch) {
					tx.Set(v)
					payload[v] = progress[v] // message index within batch
				}
			}
			net.StepSet(tx, payload, nil, func(d radio.Delivery[int32]) {
				if d.From != d.To-1 {
					return
				}
				v := d.From
				if coding {
					progress[v]++
					if progress[v] == int32(batch) {
						batchHave[d.To]++
					}
				} else if d.Payload == progress[v] {
					progress[v]++
					if progress[v] == int32(batch) {
						batchHave[d.To]++
					}
				}
			})
			totalRounds++
		}
	}
	done := 0
	for v := 0; v < n; v++ {
		if batchHave[v] == int32(batches) {
			done++
		}
	}
	return Outcome{
		Rounds:  totalRounds,
		Success: batchHave[n-1] == int32(batches),
		Done:    done,
		Channel: net.Stats(),
	}, nil
}

func pipelineDefaultMaxRounds(pathLen, k int, cfg radio.Config) int {
	slack := 1.0
	if cfg.Fault != radio.Faultless {
		slack = 1 / (1 - cfg.P)
	}
	return int(float64(10*(3*k+3*pathLen))*slack) + 2000
}
