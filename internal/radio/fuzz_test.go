package radio

import (
	"reflect"
	"testing"

	"noisyradio/internal/graph"
)

// FuzzStepEngines fuzzes the engine equivalence contract: an arbitrary
// edge list, fault environment and broadcast schedule must produce
// bit-identical deliveries, Stats and traces on both engines (the rx
// bitset is cross-checked against deliveries inside the harness). Seed
// corpus lives in testdata/fuzz/FuzzStepEngines.
func FuzzStepEngines(f *testing.F) {
	f.Add(uint64(1), uint64(10), uint64(0), uint64(0), []byte{0, 1, 1, 2, 2, 3}, []byte{0xff, 0x0f})
	f.Add(uint64(7), uint64(70), uint64(1), uint64(30), []byte{0, 1, 0, 2, 0, 3, 1, 2}, []byte{0xaa, 0x55, 0x33})
	f.Add(uint64(9), uint64(128), uint64(2), uint64(80), []byte{}, []byte{0x01})
	// modelRaw >= 3 selects the v2 geometric-skip draw contract (see the
	// cfg construction): seed both models under v2, at a skip-friendly
	// sparse p and at a dense one.
	f.Add(uint64(3), uint64(90), uint64(4), uint64(2), []byte{0, 1, 1, 2, 0, 3}, []byte{0x5a, 0xc3})
	f.Add(uint64(4), uint64(60), uint64(5), uint64(40), []byte{0, 1, 0, 2, 1, 3}, []byte{0x0f, 0xf0, 0x99})
	f.Fuzz(func(t *testing.T, seed, nRaw, modelRaw, pRaw uint64, edges, sched []byte) {
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
		rounds := len(sched)
		if rounds < 1 {
			rounds = 1
		}
		if rounds > 24 {
			rounds = 24
		}
		schedule := func(round, v int) bool {
			if len(sched) == 0 {
				return (round+v)%3 == 0
			}
			idx := round*n + v
			return sched[(idx/8)%len(sched)]>>(idx%8)&1 == 1
		}
		ref := executeEngine(t, g, cfg, Sparse, seed, rounds, schedule)
		got := executeEngine(t, g, cfg, Dense, seed, rounds, schedule)
		if ref.stats != got.stats {
			t.Fatalf("dense: stats diverged\nref %+v\ngot %+v", ref.stats, got.stats)
		}
		if !reflect.DeepEqual(ref.deliveries, got.deliveries) {
			t.Fatalf("dense: deliveries diverged: %d vs %d events", len(ref.deliveries), len(got.deliveries))
		}
		if !reflect.DeepEqual(ref.traces, got.traces) {
			t.Fatal("dense: traces diverged")
		}
	})
}
