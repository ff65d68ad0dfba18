package graph

import (
	"fmt"
	"slices"
	"testing"

	"noisyradio/internal/rng"
)

// modelCases sizes the complete graph at the model's structural edge
// cases: a single vertex, a single edge, word boundaries.
var modelCases = []int{1, 2, 9, 64}

// TestModelMatchesExplicit proves CompleteModel agrees exactly with the
// Builder's materialized complete graph — the foundation of the implicit
// engine's bit-identity contract.
func TestModelMatchesExplicit(t *testing.T) {
	for _, n := range modelCases {
		t.Run(fmt.Sprintf("complete-%d", n), func(t *testing.T) {
			explicit, implicit := builderComplete(n), Complete(n)
			eg, ig := explicit.G, implicit.G
			if ig.HasCSR() {
				t.Fatal("Complete stored a CSR")
			}
			if m := ig.Model(); m == nil || *m != (CompleteModel{Nodes: n}) {
				t.Fatalf("Complete(%d).Model() = %v, want {Nodes: %d}", n, m, n)
			}
			if explicit.Name != implicit.Name {
				t.Fatalf("topology names differ: %q vs %q", explicit.Name, implicit.Name)
			}
			if got, want := ig.N(), eg.N(); got != want {
				t.Fatalf("N: %d != %d", got, want)
			}
			if got, want := ig.M(), eg.M(); got != want {
				t.Fatalf("M: %d != %d", got, want)
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
// Builder: CSR adjacency and no model, so its BFS walks the CSR.
func builderComplete(n int) Topology {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("complete(n=%d)", n)}
}

// TestModelBFSMatchesCSR: BFS, BFSParents, Layers and Eccentricity
// answered from Complete's model equal the queue BFS of the Builder's
// model-less complete graph from every source.
func TestModelBFSMatchesCSR(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 65, 1024} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ref := builderComplete(n).G
			if ref.Model() != nil {
				t.Fatal("the Builder attached a model")
			}
			g := Complete(n).G
			for src := 0; src < n; src++ {
				wantDist, wantParent := ref.BFSParents(src)
				gotDist, gotParent := g.BFSParents(src)
				if got := g.BFS(src); !slices.Equal(got, wantDist) || !slices.Equal(gotDist, wantDist) {
					t.Fatalf("BFS(%d) = %v, BFSParents distances %v, want %v", src, got, gotDist, wantDist)
				}
				if !slices.Equal(gotParent, wantParent) {
					t.Fatalf("BFSParents(%d) parents %v, want %v", src, gotParent, wantParent)
				}
				if got, want := g.Layers(src), ref.Layers(src); !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("Layers(%d) = %v, want %v", src, got, want)
				}
				wantEcc := int(slices.Max(wantDist)) // the complete graph is connected
				if got := g.Eccentricity(src); got != wantEcc {
					t.Fatalf("Eccentricity(%d) = %d, want %d", src, got, wantEcc)
				}
			}
		})
	}
}

// TestImplicitGraphPanics locks in the contract that adjacency-exposing
// methods fail loudly instead of misbehaving on the implicit complete
// graph, while BFS and Layers answer from the model exactly as on the
// Builder's graph.
func TestImplicitGraphPanics(t *testing.T) {
	g, ref := Complete(8).G, builderComplete(8).G
	t.Run("BFS", func(t *testing.T) {
		if got, want := g.BFS(3), ref.BFS(3); !slices.Equal(got, want) {
			t.Fatalf("implicit BFS(3) = %v, explicit %v", got, want)
		}
	})
	t.Run("Layers", func(t *testing.T) {
		if got, want := g.Layers(3), ref.Layers(3); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("implicit Layers(3) = %v, explicit %v", got, want)
		}
	})
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Neighbors", func() { g.Neighbors(0) }},
		{"WordRow", func() { g.WordRow(0) }},
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

// TestImplicitScale builds a million-node complete graph — the regime
// the implicit engine exists for — and checks a few closed-form answers;
// a CSR/bit-matrix build at this size would be ~125 GB.
func TestImplicitScale(t *testing.T) {
	const n = 1_000_000
	top := Complete(n)
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
