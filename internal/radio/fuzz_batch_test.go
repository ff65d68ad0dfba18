package radio

import (
	"testing"

	"noisyradio/internal/graph"
)

// FuzzStepBatch fuzzes the batch/scalar equivalence contract: for an
// arbitrary graph, fault environment, stream count and per-lane schedule,
// every lane of a StepBatch run — at one stream and at the drawn count W
// in 1..MaxBatchWidth — must reproduce its scalar StepSet trial on the
// dense engine exactly: deliveries, Stats, accumulated rx bits and the
// lane stream's position afterwards (checked via the next draw). Lane
// lifetimes are staggered so the fuzz also covers early-deactivated
// lanes. Seed corpus lives in testdata/fuzz/FuzzStepBatch.
func FuzzStepBatch(f *testing.F) {
	f.Add(uint64(1), uint64(10), uint64(0), uint64(0), uint64(4), []byte{0, 1, 1, 2, 2, 3}, []byte{0xff, 0x0f})
	f.Add(uint64(7), uint64(70), uint64(1), uint64(30), uint64(8), []byte{0, 1, 0, 2, 0, 3, 1, 2}, []byte{0xaa, 0x55, 0x33})
	f.Add(uint64(9), uint64(128), uint64(2), uint64(80), uint64(1), []byte{}, []byte{0x01})
	// modelRaw >= 3 selects the v2 geometric-skip draw contract: seed both
	// models under v2, including a sparse p.
	f.Add(uint64(3), uint64(90), uint64(4), uint64(2), uint64(8), []byte{0, 1, 1, 2, 0, 3}, []byte{0x5a, 0xc3})
	f.Add(uint64(4), uint64(60), uint64(5), uint64(40), uint64(5), []byte{0, 1, 0, 2, 1, 3}, []byte{0x0f, 0xf0, 0x99})
	// A full kernel, and one whose upper eight lanes are partly live.
	f.Add(uint64(5), uint64(80), uint64(1), uint64(30), uint64(15), []byte{0, 1, 1, 2, 2, 3, 0, 4}, []byte{0xc3, 0x3c, 0x5a})
	f.Add(uint64(6), uint64(100), uint64(2), uint64(50), uint64(12), []byte{0, 1, 0, 2, 0, 3, 0, 4}, []byte{0x96, 0x69})
	f.Fuzz(func(t *testing.T, seed, nRaw, modelRaw, pRaw, wRaw uint64, edges, sched []byte) {
		n := int(nRaw%130) + 2
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(int(edges[i])%n, int(edges[i+1])%n)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("builder rejected in-range edges: %v", err)
		}
		cfg := Config{
			Fault: FaultModel(modelRaw%3 + 1),
			P:     float64(pRaw%95) / 100,
			Draw:  DrawContract(modelRaw / 3 % 2),
		}
		w := int(wRaw%MaxBatchWidth) + 1
		rounds := len(sched)
		if rounds < 1 {
			rounds = 1
		}
		if rounds > 16 {
			rounds = 16
		}
		roundsFor := func(lane int) int { return 1 + (rounds+lane-1)%rounds }
		schedule := func(lane, round, v int) bool {
			if len(sched) == 0 {
				return (lane+round+v)%3 == 0
			}
			idx := (lane*rounds+round)*n + v
			return sched[(idx/8)%len(sched)]>>(idx%8)&1 == 1
		}
		for _, width := range []int{1, w} {
			got := executeBatchLanes(t, g, cfg, seed, width, roundsFor, schedule)
			for l := 0; l < width; l++ {
				want := executeScalarLane(t, g, cfg, seed, l, roundsFor(l), schedule)
				requireLaneIdentical(t, "", want, got[l])
			}
		}
	})
}
