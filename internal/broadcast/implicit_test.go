package broadcast

import (
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// End-to-end implicit-topology coverage: the paper's schedules on a
// CSR-less complete graph must be byte-identical to the explicit twin (the
// engines are interchangeable, so only the storage mode differs) and must
// scale to node counts where explicit adjacency cannot exist.

func TestDecayImplicitMatchesExplicit(t *testing.T) {
	pairs := []struct {
		name               string
		explicit, implicit graph.Topology
	}{
		{"complete-2", graph.Complete(2), graph.ImplicitComplete(2)},
		{"complete-300", graph.Complete(300), graph.ImplicitComplete(300)},
	}
	cfgs := []radio.Config{
		{Fault: radio.Faultless},
		{Fault: radio.SenderFaults, P: 0.2},
		{Fault: radio.ReceiverFaults, P: 0.2},
	}
	decay := MustSchedule("decay")
	for _, pair := range pairs {
		for _, cfg := range cfgs {
			want, err := decay.Run(pair.explicit, cfg, rng.New(42), ScheduleParams{})
			if err != nil {
				t.Fatalf("%s/%s explicit: %v", pair.name, cfg.Fault, err)
			}
			got, err := decay.Run(pair.implicit, cfg, rng.New(42), ScheduleParams{})
			if err != nil {
				t.Fatalf("%s/%s implicit: %v", pair.name, cfg.Fault, err)
			}
			if want != got {
				t.Fatalf("%s/%s: implicit Decay diverged\nwant %+v\ngot  %+v", pair.name, cfg.Fault, want, got)
			}
			// The deprecated RunBatch over the implicit topology, against
			// Runs over the explicit one.
			rnds := []*rng.Stream{rng.NewFrom(7, 0), rng.NewFrom(7, 1), rng.NewFrom(7, 2)}
			batch, err := decay.RunBatch(pair.implicit, cfg, rnds, ScheduleParams{})
			if err != nil {
				t.Fatalf("%s/%s batch: %v", pair.name, cfg.Fault, err)
			}
			for i, b := range batch {
				s, err := decay.Run(pair.explicit, cfg, rng.NewFrom(7, uint64(i)), ScheduleParams{})
				if err != nil {
					t.Fatal(err)
				}
				if b != s {
					t.Fatalf("%s/%s: batch trial %d diverged from the explicit Run\nwant %+v\ngot  %+v", pair.name, cfg.Fault, i, s, b)
				}
			}
		}
	}
}

// TestDecayImplicitLargeN runs Decay on a complete graph of 10⁵ nodes —
// a topology whose bit-matrix adjacency would need ~1.25 GB and whose CSR
// would need ~40 GB. The implicit engine finishes it in O(n) memory.
func TestDecayImplicitLargeN(t *testing.T) {
	const n = 100_000
	top := graph.ImplicitComplete(n)
	res, err := MustSchedule("decay").Run(top, radio.Config{Fault: radio.SenderFaults, P: 0.1}, rng.New(1), ScheduleParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.Done != n {
		t.Fatalf("Decay on implicit complete(%d): %+v", n, res)
	}
}
