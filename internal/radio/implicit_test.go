package radio

import (
	"fmt"
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// The implicit-engine differential suite: on the complete graph, the one
// topology with a closed-form neighbourhood model, the implicit engine on
// Complete(n) must reproduce the sparse reference on the Builder's CSR
// complete graph bit for bit.

// builderComplete is the complete graph built by the Builder: CSR
// adjacency and no model, so the sparse and dense engines can be forced
// on it and held against the implicit engine on Complete(n).
func builderComplete(n int) graph.Topology {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return graph.Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("complete(n=%d)", n)}
}

// TestDifferentialImplicitAcrossTopologies proves the implicit engine on
// Complete(n) bit-identical to the sparse reference on the CSR complete
// graph across the fault environments, at sizes covering a single edge,
// an exact word and a word boundary.
func TestDifferentialImplicitAcrossTopologies(t *testing.T) {
	for _, n := range []int{2, 64, 70} {
		explicit, implicit := builderComplete(n).G, graph.Complete(n).G
		for _, cfg := range diffConfigs() {
			for _, txProb := range []float64{0.05, 0.3, 0.8} {
				name := fmt.Sprintf("complete-%d/%s/draw %v txProb=%v", n, cfg.Fault, cfg.Draw, txProb)
				ref := runEngine(t, explicit, cfg, Sparse, 42, 77, 60, txProb)
				requireIdentical(t, name, ref, runEngine(t, implicit, cfg, Implicit, 42, 77, 60, txProb))
			}
		}
	}
}

// closedFormSchedule cycles the round's broadcaster count through 0, 1,
// 2 and 3+ on n nodes. The lone broadcaster moves through ids 0, 63, 64
// and n−1 (clamped to the graph) from cycle to cycle; the pair is the lone
// id and its successor mod n, so {63, 64} and {n−1, 0} straddle a word
// boundary and the wrap; the crowd adds every fifth node. Random
// schedules rarely hit exactly one broadcaster on a 64-node graph, and
// the lone-broadcaster round is the only one the implicit engine resolves
// listener by listener.
func closedFormSchedule(n int) func(round, v int) bool {
	return func(round, v int) bool {
		lone := min([]int{0, 63, 64, n - 1}[round/4%4], n-1)
		switch round % 4 {
		case 1:
			return v == lone
		case 2:
			return v == lone || v == (lone+1)%n
		case 3:
			return v == lone || v%5 == round%5
		}
		return false
	}
}

// TestDifferentialImplicitClosedForm drives the closed-form cases of the
// implicit engine on Complete(n) with closedFormSchedule, and requires
// the sparse engine's execution on the CSR complete graph, which the
// dense engine matches, bit for bit under every fault environment.
func TestDifferentialImplicitClosedForm(t *testing.T) {
	const rounds = 64 // every lone id in 4 cycles
	for _, n := range []int{1, 2, 64, 65, 130} {
		t.Run(fmt.Sprintf("complete-%d", n), func(t *testing.T) {
			explicit, implicit := builderComplete(n).G, graph.Complete(n).G
			sched := closedFormSchedule(n)
			for _, cfg := range diffConfigs() {
				ref := executeEngine(t, explicit, cfg, Sparse, 42, rounds, sched)
				name := fmt.Sprintf("%s/draw %v", cfg.Fault, cfg.Draw)
				requireIdentical(t, name+"/dense", ref, executeEngine(t, explicit, cfg, Dense, 42, rounds, sched))
				requireIdentical(t, name+"/implicit", ref, executeEngine(t, implicit, cfg, Implicit, 42, rounds, sched))
			}
		})
	}
}

// TestEngineFallback locks in the fallback semantics of forced engines:
// an engine the graph cannot support resolves to the Auto choice instead
// of failing, so suite-wide -engine overrides run mixed workloads.
func TestEngineFallback(t *testing.T) {
	implicitG := graph.Complete(128).G
	modelless := graph.GNP(128, 0.5, rng.New(3)).G // dense, no model
	sparseModelless := graph.BinaryTree(5).G       // sparse, no model
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		forced Engine
		want   Engine
	}{
		{"sparse-on-implicit-graph", implicitG, Sparse, Implicit},
		{"dense-on-implicit-graph", implicitG, Dense, Implicit},
		{"implicit-on-implicit-graph", implicitG, Implicit, Implicit},
		{"auto-on-implicit-graph", implicitG, Auto, Implicit},
		{"implicit-on-dense-modelless", modelless, Implicit, Sparse},
		{"implicit-on-sparse-modelless", sparseModelless, Implicit, Sparse},
		{"dense-on-dense-modelless", modelless, Dense, Dense},
		{"sparse-on-csr-complete", builderComplete(70).G, Sparse, Sparse},
		{"dense-on-csr-complete", builderComplete(70).G, Dense, Dense},
	} {
		cfg := Config{Fault: Faultless, Engine: tc.forced}
		if got := cfg.ResolveEngine(tc.g); got != tc.want {
			t.Errorf("%s: ResolveEngine = %v, want %v", tc.name, got, tc.want)
		}
		if got := MustNew[int32](tc.g, cfg, rng.New(1)).Engine(); got != tc.want {
			t.Errorf("%s: New resolved %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAutoUpgradesDenseToImplicit checks the Auto rule for modelled
// graphs: every complete graph runs implicitly at every n, while every
// graph without a model, dense or sparse, runs Sparse; the dense engine
// runs only when forced.
func TestAutoUpgradesDenseToImplicit(t *testing.T) {
	auto := Config{}
	for _, n := range []int{1, 2, 63, 64, 512, 4096} {
		if top := graph.Complete(n); auto.ResolveEngine(top.G) != Implicit {
			t.Errorf("%s: auto = %v, want %v", top.Name, auto.ResolveEngine(top.G), Implicit)
		}
	}
	gnp := graph.GNP(512, 0.5, rng.New(3)).G
	if got := auto.ResolveEngine(gnp); got != Sparse {
		t.Errorf("GNP(512, 0.5): auto = %v, want %v", got, Sparse)
	}
	if got := (Config{Engine: Dense}).ResolveEngine(gnp); got != Dense {
		t.Errorf("GNP(512, 0.5): forced dense = %v, want %v", got, Dense)
	}
	// Sparse-leaning topologies stay sparse at any size: O(Σ deg) per
	// round beats the implicit engine's O(n).
	if got := auto.ResolveEngine(graph.Path(8192).G); got != Sparse {
		t.Errorf("Path(8192): auto = %v, want %v", got, Sparse)
	}
}
