package broadcast

import (
	"fmt"
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// End-to-end implicit-topology coverage: the paper's schedules on
// Complete(n), which stores no adjacency, must be byte-identical to the
// same schedules on G(n, 1) — the complete graph stored as CSR, run by
// the sparse or dense engine — and must scale to node counts where
// explicit adjacency cannot exist.

// completePair is one complete graph in both storage modes.
type completePair struct {
	name               string
	explicit, implicit graph.Topology
}

// completePairs pairs Complete(n) with G(n, 1) for each size, and fails
// unless G(n, 1) has every edge and runs on a stored-adjacency engine.
func completePairs(t *testing.T, sizes ...int) []completePair {
	t.Helper()
	var pairs []completePair
	for _, n := range sizes {
		explicit := graph.GNP(n, 1, rng.New(1))
		if eng := (radio.Config{}).ResolveEngine(explicit.G); eng == radio.Implicit || explicit.G.M() != n*(n-1)/2 {
			t.Fatalf("G(%d, 1) is not the CSR complete graph (engine %v, %d edges)", n, eng, explicit.G.M())
		}
		pairs = append(pairs, completePair{fmt.Sprintf("complete-%d", n), explicit, graph.Complete(n)})
	}
	return pairs
}

var implicitConfigs = []radio.Config{
	{Fault: radio.Faultless},
	{Fault: radio.SenderFaults, P: 0.2},
	{Fault: radio.ReceiverFaults, P: 0.2},
}

func TestDecayImplicitMatchesExplicit(t *testing.T) {
	decay := MustSchedule("decay")
	for _, pair := range completePairs(t, 2, 300) {
		for _, cfg := range implicitConfigs {
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

// TestTopologySchedulesImplicitMatchExplicit: every topology-taking
// schedule returns on Complete(n) — implicit rounds, closed-form BFS,
// GBST parents and layers — the outcomes it returns on the CSR complete
// graph, where gbst.Build and Layers walk neighbour lists.
func TestTopologySchedulesImplicitMatchExplicit(t *testing.T) {
	for _, pair := range completePairs(t, 2, 3, 65) {
		for _, name := range []string{"decay", "decay-unknown-n", "fastbc", "robust-fastbc", "rlnc", "sequential-decay-routing", "pipelined-batch-routing"} {
			sched := MustSchedule(name)
			p := ScheduleParams{}
			if sched.Kind == MultiMessage {
				p.K = 4
			}
			for _, cfg := range implicitConfigs {
				for seed := uint64(0); seed < 3; seed++ {
					want, err := sched.Run(pair.explicit, cfg, rng.New(seed), p)
					if err != nil {
						t.Fatalf("%s/%s/%s explicit: %v", pair.name, name, cfg.Fault, err)
					}
					got, err := sched.Run(pair.implicit, cfg, rng.New(seed), p)
					if err != nil {
						t.Fatalf("%s/%s/%s implicit: %v", pair.name, name, cfg.Fault, err)
					}
					if want != got || !got.Success {
						t.Fatalf("%s/%s/%s seed %d: implicit %+v, explicit %+v", pair.name, name, cfg.Fault, seed, got, want)
					}
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
	top := graph.Complete(n)
	res, err := MustSchedule("decay").Run(top, radio.Config{Fault: radio.SenderFaults, P: 0.1}, rng.New(1), ScheduleParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.Done != n {
		t.Fatalf("Decay on implicit complete(%d): %+v", n, res)
	}
}
