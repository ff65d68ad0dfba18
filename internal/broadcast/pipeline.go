package broadcast

import (
	"fmt"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// pipelinedBatchRouting implements the adaptive routing schedule of
// Lemma 21 on an arbitrary connected topology, for p.K messages, establishing the paper's
// possibility side of the worst-case routing throughput Θ(1/log² n) with
// receiver faults.
//
// The graph is cut into BFS layers from the source (the bipartite
// decomposition of Lemma 21's proof). Messages flow layer to layer:
// a layer pushes message m to the next layer once *all* of its nodes hold m
// (the Lemma 20 precondition "every node in L knows the k messages"),
// running a Decay step among its nodes until every next-layer node has
// received m. Layers whose index agrees with the round number mod 3 are
// active simultaneously — three-apart layers cannot interfere on a BFS
// decomposition, which is exactly the paper's pipelining argument.
//
// Per boundary and message this costs O(log n · log(width)/(1-p)) rounds
// (a Decay phase per coupon over the receiving layer), so k messages cross
// D pipelined boundaries in O((k + D)·log² n) rounds: throughput
// Ω(1/log² n), matching Lemma 21.
func pipelinedBatchRouting(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	if err := validateTopology(top); err != nil {
		return Outcome{}, err
	}
	k := p.K
	if k < 1 {
		return Outcome{}, fmt.Errorf("broadcast: pipelined batch routing needs k >= 1, got %d", k)
	}
	g := top.G
	n := g.N()
	layers := g.Layers(top.Source)
	level := g.BFS(top.Source)
	for v := 0; v < n; v++ {
		if level[v] == -1 {
			return Outcome{}, fmt.Errorf("broadcast: node %d unreachable from source", v)
		}
	}
	L := len(layers) - 1 // deepest layer index
	if L == 0 {
		// Source-only graph: trivially done.
		return Outcome{Rounds: 0, Success: true, Done: n}, nil
	}

	net, err := radio.New[int32](g, cfg, r)
	if err != nil {
		return Outcome{}, err
	}
	maxRounds := p.Options.MaxRounds
	if maxRounds <= 0 {
		maxRounds = pipelinedBatchDefaultMaxRounds(n, L, k, cfg)
	}

	// layerHave[i]: messages held by every node of layer i (prefix count;
	// the push order makes deliveries in-order per layer).
	layerHave := make([]int32, L+1)
	layerHave[0] = int32(k)
	// missing[i]: nodes of layer i still lacking message layerHave[i];
	// gen[v] == layerHave[level(v)]+1 marks v as holding it.
	missing := make([]int, L+1)
	for i := 1; i <= L; i++ {
		missing[i] = len(layers[i])
	}
	gen := make([]int32, n)

	phaseLen := decayPhaseLen(n)
	coins := decayCoins(phaseLen)
	tx := bitset.New(n)
	payload := make([]int32, n)
	var marked []int32

	round := 0
	for ; round < maxRounds && layerHave[L] < int32(k); round++ {
		mod := round % 3
		coin := coins[(round/3)%phaseLen]
		for i := 0; i < L; i++ {
			if i%3 != mod || layerHave[i] <= layerHave[i+1] {
				continue
			}
			msg := layerHave[i+1]
			for _, v := range layers[i] {
				if coin.Draw(r) {
					tx.Set(int(v))
					payload[v] = msg
					marked = append(marked, v)
				}
			}
		}
		net.StepSet(tx, payload, nil, func(d radio.Delivery[int32]) {
			lv := level[d.To]
			if level[d.From] != lv-1 {
				return // sideways or backwards reception; not the pipeline
			}
			if d.Payload != layerHave[lv] || gen[d.To] == layerHave[lv]+1 {
				return
			}
			gen[d.To] = layerHave[lv] + 1
			missing[lv]--
			if missing[lv] == 0 {
				layerHave[lv]++
				missing[lv] = len(layers[lv])
			}
		})
		for _, v := range marked {
			tx.Clear(int(v))
		}
		marked = marked[:0]
	}

	done := 0
	for i := 0; i <= L; i++ {
		if layerHave[i] == int32(k) {
			done += len(layers[i])
		}
	}
	return Outcome{
		Rounds:  round,
		Success: layerHave[L] == int32(k),
		Done:    done,
		Channel: net.Stats(),
	}, nil
}

func pipelinedBatchDefaultMaxRounds(n, depth, k int, cfg radio.Config) int {
	slack := 1.0
	if cfg.Fault != radio.Faultless {
		slack = 1 / (1 - cfg.P)
	}
	logn := graph.Log2Ceil(n) + 2
	return int(slack*float64(80*(k+depth)*logn*logn)) + 4000
}
