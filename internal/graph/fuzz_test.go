package graph

import (
	"errors"
	"math/bits"
	"slices"
	"testing"
)

// FuzzBuilder fuzzes Builder input validation and the CSR the built
// graph exposes: every neighbour list must equal, exactly, the reference
// adjacency of the added edges taken through a set (both orientations,
// self-loops dropped), so Build may neither lose nor invent an edge, and
// its lists are strictly increasing. Degree and edge accounting, HasEdge,
// every word row (see checkWordRow) and the bit-matrix adjacency view must
// agree with it. Seed corpus lives in testdata/fuzz/FuzzBuilder.
func FuzzBuilder(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1), []byte{0, 0})
	f.Add(uint64(5), []byte{0, 1, 1, 2, 2, 0, 3, 3, 4, 0, 4, 0})
	f.Add(uint64(200), []byte{7, 9, 9, 7, 1, 1, 0, 199})
	// Rows filled in descending order, and a duplicate in both
	// orientations next to a self-loop, with vertices 1 and 5 isolated.
	f.Add(uint64(6), []byte{0, 4, 0, 3, 0, 2, 4, 3, 3, 4, 2, 2, 4, 3})
	// A duplicate in both orientations shortens row 0 by one, so
	// compaction moves row 1 ({2, 70, 130}, three words) down by one,
	// over itself: a pair count read off the row's old place after the
	// move would see {70, 130, 130}, two words.
	f.Add(uint64(200), []byte{0, 199, 199, 0, 1, 2, 1, 70, 1, 130})
	f.Fuzz(func(t *testing.T, nRaw uint64, edges []byte) {
		n := int(nRaw % 300) // 0 exercises the ErrEmptyGraph path
		b := NewBuilder(n)
		ref := make([]map[int32]bool, n)
		for v := range ref {
			ref[v] = make(map[int32]bool)
		}
		if n > 0 {
			for i := 0; i+1 < len(edges); i += 2 {
				u, v := int(edges[i])%n, int(edges[i+1])%n
				b.AddEdge(u, v)
				if u != v {
					ref[u][int32(v)], ref[v][int32(u)] = true, true
				}
			}
		}
		g, err := b.Build()
		if n == 0 {
			if !errors.Is(err, ErrEmptyGraph) {
				t.Fatalf("Build() on 0 vertices: err = %v, want ErrEmptyGraph", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Build() = %v for valid input", err)
		}
		if g.N() != n {
			t.Fatalf("N() = %d, want %d", g.N(), n)
		}
		degSum := 0
		for v := 0; v < n; v++ {
			want := make([]int32, 0, len(ref[v]))
			for u := range ref[v] {
				want = append(want, u)
			}
			slices.Sort(want)
			ns := g.Neighbors(v)
			if !slices.Equal(ns, want) {
				t.Fatalf("node %d: Neighbors = %v, want %v", v, ns, want)
			}
			checkWordRow(t, g, v)
			if g.Degree(v) != len(want) {
				t.Fatalf("node %d: Degree %d, want %d", v, g.Degree(v), len(want))
			}
			for _, u := range want {
				if !g.HasEdge(int(u), v) {
					t.Fatalf("HasEdge(%d, %d) = false for a listed edge", u, v)
				}
			}
			degSum += len(want)
		}
		if degSum != 2*g.M() {
			t.Fatalf("degree sum %d != 2*M %d", degSum, 2*g.M())
		}
		bits := g.AdjacencyBits()
		for v := 0; v < n; v++ {
			if bits.RowCount(v) != g.Degree(v) {
				t.Fatalf("node %d: bit view degree %d != CSR degree %d", v, bits.RowCount(v), g.Degree(v))
			}
			for _, u := range g.Neighbors(v) {
				if !bits.Test(v, int(u)) {
					t.Fatalf("edge (%d,%d) missing from bit view", v, u)
				}
			}
		}
	})
}

// checkWordRow fails unless v's word row is Neighbors(v) regrouped: word
// indices strictly ascend, no mask is zero, the mask bits are exactly the
// row, and their popcounts sum to the degree.
func checkWordRow(t *testing.T, g *Graph, v int) {
	t.Helper()
	words, masks := g.WordRow(v)
	if len(words) != len(masks) {
		t.Fatalf("node %d: %d word indices but %d masks", v, len(words), len(masks))
	}
	var ids []int32
	bitsSum := 0
	for j, i := range words {
		if j > 0 && i <= words[j-1] {
			t.Fatalf("node %d: word indices %v do not strictly ascend", v, words)
		}
		if masks[j] == 0 {
			t.Fatalf("node %d: pair %d (word %d) has a zero mask", v, j, i)
		}
		bitsSum += bits.OnesCount64(masks[j])
		for m := masks[j]; m != 0; m &= m - 1 {
			ids = append(ids, i<<6|int32(bits.TrailingZeros64(m)))
		}
	}
	if !slices.Equal(ids, g.Neighbors(v)) {
		t.Fatalf("node %d: word row holds %v, Neighbors %v", v, ids, g.Neighbors(v))
	}
	if bitsSum != g.Degree(v) {
		t.Fatalf("node %d: word row popcounts sum to %d, degree %d", v, bitsSum, g.Degree(v))
	}
}
