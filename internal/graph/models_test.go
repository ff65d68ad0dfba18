package graph

import (
	"fmt"
	"slices"
	"testing"

	"noisyradio/internal/rng"
)

// modelCases pairs Complete, the one closed-form generator, with its
// implicit twin. Sizes hit the model's structural edge cases (a single
// vertex, a single edge, word boundaries).
func modelCases() []struct {
	name               string
	explicit, implicit Topology
} {
	return []struct {
		name               string
		explicit, implicit Topology
	}{
		{"complete-1", Complete(1), ImplicitComplete(1)},
		{"complete-2", Complete(2), ImplicitComplete(2)},
		{"complete-9", Complete(9), ImplicitComplete(9)},
		{"complete-64", Complete(64), ImplicitComplete(64)},
	}
}

// TestModelMatchesExplicit proves CompleteModel agrees exactly with the
// generator's materialized adjacency — the foundation of the implicit
// engine's bit-identity contract.
func TestModelMatchesExplicit(t *testing.T) {
	for _, tc := range modelCases() {
		t.Run(tc.name, func(t *testing.T) {
			eg, ig := tc.explicit.G, tc.implicit.G
			if !eg.HasCSR() {
				t.Fatal("explicit generator lost its CSR")
			}
			if ig.HasCSR() {
				t.Fatal("implicit graph claims a CSR")
			}
			m := eg.Model()
			if m == nil {
				t.Fatal("closed-form generator did not attach a model")
			}
			if *m != *ig.Model() {
				t.Fatalf("explicit and implicit models differ: %#v vs %#v", *m, *ig.Model())
			}
			if tc.explicit.Name != tc.implicit.Name {
				t.Fatalf("topology names differ: %q vs %q", tc.explicit.Name, tc.implicit.Name)
			}
			if got, want := ig.N(), eg.N(); got != want {
				t.Fatalf("N: %d != %d", got, want)
			}
			if got, want := ig.M(), eg.M(); got != want {
				t.Fatalf("M: %d != %d", got, want)
			}
			if got, want := ig.AvgDegree(), eg.AvgDegree(); got != want {
				t.Fatalf("AvgDegree: %v != %v", got, want)
			}
			for v := 0; v < eg.N(); v++ {
				if got, want := ig.Degree(v), eg.Degree(v); got != want {
					t.Fatalf("Degree(%d): %d != %d", v, got, want)
				}
				if got, want := ig.Eccentricity(v), eg.Eccentricity(v); got != want {
					t.Fatalf("Eccentricity(%d): %d != %d", v, got, want)
				}
				for u := 0; u < eg.N(); u++ {
					if got, want := ig.HasEdge(u, v), eg.HasEdge(u, v); got != want {
						t.Fatalf("HasEdge(%d,%d): %v != %v", u, v, got, want)
					}
				}
			}
			if got, want := ig.Diameter(), eg.Diameter(); got != want {
				t.Fatalf("Diameter: %d != %d", got, want)
			}
			if !ig.Connected() {
				t.Fatal("implicit graph reports disconnected")
			}
		})
	}
}

// builderComplete builds the complete graph on n vertices through the
// Builder, which attaches no model, so its BFS walks the CSR.
func builderComplete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.MustBuild()
}

// TestModelBFSMatchesCSR: BFS and Eccentricity answered from the model,
// on Complete's CSR graph and on the CSR-less implicit twin, equal the
// queue BFS of the Builder's model-less complete graph from every source.
func TestModelBFSMatchesCSR(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 65, 1024} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ref := builderComplete(n)
			if ref.Model() != nil {
				t.Fatal("the Builder attached a model")
			}
			explicit, implicit := Complete(n).G, ImplicitComplete(n).G
			for src := 0; src < n; src++ {
				want := ref.BFS(src)
				wantEcc := int(slices.Max(want)) // the complete graph is connected
				for _, g := range []*Graph{explicit, implicit} {
					if got := g.BFS(src); !slices.Equal(got, want) {
						t.Fatalf("csr=%v: BFS(%d) = %v, want %v", g.HasCSR(), src, got, want)
					}
					if got := g.Eccentricity(src); got != wantEcc {
						t.Fatalf("csr=%v: Eccentricity(%d) = %d, want %d", g.HasCSR(), src, got, wantEcc)
					}
				}
			}
		})
	}
}

// TestImplicitGraphPanics locks in the contract that adjacency-exposing
// methods fail loudly instead of misbehaving on implicit graphs, while
// BFS answers from the model exactly as on the explicit graph.
func TestImplicitGraphPanics(t *testing.T) {
	g := ImplicitComplete(8).G
	t.Run("BFS", func(t *testing.T) {
		if got, want := g.BFS(3), Complete(8).G.BFS(3); !slices.Equal(got, want) {
			t.Fatalf("implicit BFS(3) = %v, explicit %v", got, want)
		}
	})
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Neighbors", func() { g.Neighbors(0) }},
		{"Layers", func() { g.Layers(0) }},
		{"AdjacencyBits", func() { g.AdjacencyBits() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on an implicit graph", tc.name)
				}
			}()
			tc.call()
		})
	}
}

// TestModellessGenerators documents which generators have no closed form:
// every generator but Complete, whose graphs must keep working with a nil
// model.
func TestModellessGenerators(t *testing.T) {
	r := rng.New(7)
	for _, top := range []Topology{
		Path(16),
		Star(15),
		Cycle(16),
		Grid(4, 4),
		Hypercube(4),
		Layered(3, 5),
		RandomTree(16, r),
		GNP(16, 0.3, r),
		BinaryTree(3),
		Caterpillar(4, 2),
		Lollipop(2, 3),
		SingleLink(),
	} {
		if top.G.Model() != nil {
			t.Errorf("%s unexpectedly has a neighbour model", top.Name)
		}
		if !top.G.HasCSR() {
			t.Errorf("%s lost its CSR", top.Name)
		}
	}
}

// TestImplicitScale builds a million-node implicit complete graph — the
// regime the implicit engine exists for — and checks a few closed-form
// answers; a CSR/bit-matrix build at this size would be ~125 GB.
func TestImplicitScale(t *testing.T) {
	const n = 1_000_000
	top := ImplicitComplete(n)
	g := top.G
	if g.N() != n || g.Degree(n-1) != n-1 || g.Eccentricity(0) != 1 {
		t.Fatalf("closed-form answers wrong at n=%d", n)
	}
	if want := int64(n) * int64(n-1) / 2; int64(g.M()) != want {
		t.Fatalf("M = %d, want %d", g.M(), want)
	}
	if name := fmt.Sprintf("complete(n=%d)", n); top.Name != name {
		t.Fatalf("name %q, want %q", top.Name, name)
	}
}
