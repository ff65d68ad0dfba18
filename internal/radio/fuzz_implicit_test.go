package radio

import (
	"reflect"
	"testing"

	"noisyradio/internal/graph"
)

// FuzzStepImplicit fuzzes the implicit engine's equivalence contract: on
// a complete graph of arbitrary size (the one modelled topology), fault
// environment and broadcast schedule, the implicit engine on Complete(n)
// must reproduce the sparse reference on the Builder's CSR complete graph
// bit for bit. The modelled-topology
// counterpart of FuzzStepEngines (whose arbitrary edge lists carry no
// model).
func FuzzStepImplicit(f *testing.F) {
	f.Add(uint64(1), uint64(40), uint64(0), uint64(0), []byte{0xff, 0x0f})
	f.Add(uint64(7), uint64(17), uint64(1), uint64(30), []byte{0xaa, 0x55, 0x33})
	f.Add(uint64(9), uint64(71), uint64(2), uint64(80), []byte{0x01})
	// modelRaw >= 3 selects the v2 geometric-skip draw contract: seed both
	// models under v2.
	f.Add(uint64(3), uint64(80), uint64(4), uint64(2), []byte{0x5a, 0xc3})
	f.Add(uint64(4), uint64(55), uint64(5), uint64(40), []byte{0x0f, 0xf0})
	f.Fuzz(func(t *testing.T, seed, sizeRaw, modelRaw, pRaw uint64, sched []byte) {
		n := int(sizeRaw%96) + 1
		explicit, implicit := builderComplete(n), graph.Complete(n)
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
		ref := executeEngine(t, explicit.G, cfg, Sparse, seed, rounds, schedule)
		got := executeEngine(t, implicit.G, cfg, Implicit, seed, rounds, schedule)
		if ref.stats != got.stats {
			t.Fatalf("implicit: stats diverged\nref %+v\ngot %+v", ref.stats, got.stats)
		}
		if !reflect.DeepEqual(ref.deliveries, got.deliveries) {
			t.Fatalf("implicit: deliveries diverged: %d vs %d events", len(ref.deliveries), len(got.deliveries))
		}
		if !reflect.DeepEqual(ref.traces, got.traces) {
			t.Fatal("implicit: traces diverged")
		}
	})
}
