package graph

import (
	"slices"
	"sync"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/rng"
)

func TestAdjacencyBitsMatchesNeighbors(t *testing.T) {
	tops := []Topology{
		Path(1),
		Path(7),
		Star(65),
		Grid(9, 13),
		builderComplete(67),
		GNP(130, 0.15, rng.New(5)),
	}
	for _, top := range tops {
		g := top.G
		m := g.AdjacencyBits()
		if m.Rows() != g.N() || m.Cols() != g.N() {
			t.Fatalf("%s: bit view is %dx%d, graph has %d nodes", top.Name, m.Rows(), m.Cols(), g.N())
		}
		for v := 0; v < g.N(); v++ {
			if m.RowCount(v) != g.Degree(v) {
				t.Fatalf("%s: row %d has %d bits, degree %d", top.Name, v, m.RowCount(v), g.Degree(v))
			}
			for _, u := range g.Neighbors(v) {
				if !m.Test(v, int(u)) {
					t.Fatalf("%s: edge (%d,%d) missing from bit view", top.Name, v, u)
				}
			}
		}
	}
}

func TestAdjacencyBitsCachedAndConcurrent(t *testing.T) {
	g := GNP(200, 0.1, rng.New(9)).G
	const goroutines = 8
	views := make([]interface{}, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = g.AdjacencyBits()
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if views[i] != views[0] {
			t.Fatal("AdjacencyBits returned distinct views across goroutines")
		}
	}
}

func TestAvgDegree(t *testing.T) {
	if got := Complete(10).G.AvgDegree(); got != 9 {
		t.Fatalf("Complete(10) AvgDegree = %v, want 9", got)
	}
	if got := Path(2).G.AvgDegree(); got != 1 {
		t.Fatalf("Path(2) AvgDegree = %v, want 1", got)
	}
}

// TestAdjacencyBitsMatchesPerBitSet: the row-at-a-time fill must leave
// the words and row windows a per-edge Set build leaves, including the
// empty window of an isolated vertex.
func TestAdjacencyBitsMatchesPerBitSet(t *testing.T) {
	isolated := NewBuilder(130)
	isolated.AddEdge(0, 1)
	isolated.AddEdge(1, 129)
	tops := []Topology{
		builderComplete(1),
		builderComplete(65),
		builderComplete(200),
		Grid(9, 13),
		GNP(130, 0.15, rng.New(5)),
		Star(65),
		{G: isolated.MustBuild(), Name: "isolated"},
	}
	for _, top := range tops {
		g := top.G
		want := bitset.NewMatrix(g.N(), g.N())
		for v := 0; v < g.N(); v++ {
			for _, u := range g.Neighbors(v) {
				want.Set(v, int(u))
			}
		}
		got := g.AdjacencyBits()
		wantLo, wantHi := want.RowRanges()
		gotLo, gotHi := got.RowRanges()
		if !slices.Equal(got.Words(), want.Words()) || !slices.Equal(gotLo, wantLo) || !slices.Equal(gotHi, wantHi) {
			t.Fatalf("%s: AdjacencyBits differs from the per-bit Set build", top.Name)
		}
	}
	if lo, hi := tops[len(tops)-1].G.AdjacencyBits().RowRange(2); lo != 0 || hi != 0 {
		t.Fatalf("isolated vertex 2 has window [%d, %d), want empty", lo, hi)
	}
}
