package gbst

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

func build(t *testing.T, top graph.Topology) *Tree {
	t.Helper()
	tree, err := Build(top.G, top.Source)
	if err != nil {
		t.Fatalf("Build(%s): %v", top.Name, err)
	}
	if err := tree.Verify(top.G); err != nil {
		t.Fatalf("Verify(%s): %v", top.Name, err)
	}
	return tree
}

func TestBuildPath(t *testing.T) {
	tree := build(t, graph.Path(8))
	// A path is a single fast stretch of rank 1.
	if tree.MaxRank != 1 {
		t.Fatalf("MaxRank = %d, want 1", tree.MaxRank)
	}
	for v := 0; v < 7; v++ {
		if tree.FastChild[v] != int32(v+1) {
			t.Fatalf("node %d fast child = %d, want %d", v, tree.FastChild[v], v+1)
		}
	}
	stretches := tree.FastStretches(7)
	if len(stretches) != 1 || stretches[0] != 7 {
		t.Fatalf("FastStretches = %v, want [7]", stretches)
	}
}

func TestBuildStar(t *testing.T) {
	tree := build(t, graph.Star(6))
	// Hub has 6 rank-1 children, so hub rank is 2 and nothing is fast.
	if tree.Rank[0] != 2 {
		t.Fatalf("hub rank = %d, want 2", tree.Rank[0])
	}
	for v := 1; v <= 6; v++ {
		if tree.Rank[v] != 1 {
			t.Fatalf("leaf %d rank = %d, want 1", v, tree.Rank[v])
		}
	}
	if tree.IsFast(0) {
		t.Fatal("hub should not be fast")
	}
}

func TestBuildSingleNode(t *testing.T) {
	tree := build(t, graph.Path(1))
	if tree.MaxRank != 1 || tree.Depth != 0 {
		t.Fatalf("tree = %+v", tree)
	}
}

func TestBuildDisconnected(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if _, err := Build(g, 0); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
}

func TestBuildBadSource(t *testing.T) {
	g := graph.Path(3).G
	if _, err := Build(g, 5); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	// A complete binary tree of depth d has root rank d+1 and the rank of a
	// node at depth i is d+1-i (every internal node has two equal-rank
	// children, so ranks bump at every level). This is the canonical
	// worst case for MaxRank = Θ(log n).
	const depth = 6
	n := (1 << (depth + 1)) - 1
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, (v-1)/2)
	}
	g := b.MustBuild()
	tree, err := Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Verify(g); err != nil {
		t.Fatal(err)
	}
	if tree.Rank[0] != depth+1 {
		t.Fatalf("root rank = %d, want %d", tree.Rank[0], depth+1)
	}
	if tree.MaxRank != depth+1 {
		t.Fatalf("MaxRank = %d, want %d", tree.MaxRank, depth+1)
	}
}

// TestPaperFigure1 builds the graph from Figure 1 of the paper, in which a
// naive ranked BFS tree violates the GBST property, and checks our
// construction produces a verified GBST on it.
func TestPaperFigure1(t *testing.T) {
	// Level structure mirroring the figure: a root, two subtrees whose
	// same-level same-rank nodes would both be fast under naive ranking.
	//
	//          0            (root)
	//        /   \
	//       1     2         (level 1)
	//      / \   / \
	//     3   4 5   6       (level 2)
	//     |   | |   |
	//     7   8 9  10       (level 3)
	//
	// Nodes 3..6 each have one rank-1 child, so all four are fast at rank 1
	// on level 2 under naive ranking — a GBST must keep at most one.
	b := graph.NewBuilder(11)
	edges := [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}, {3, 7}, {4, 8}, {5, 9}, {6, 10}}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	tree, err := Build(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Verify(g); err != nil {
		t.Fatal(err)
	}
	fastAtLevel2 := 0
	for _, v := range []int{3, 4, 5, 6} {
		if tree.IsFast(v) && tree.Rank[v] == 1 {
			fastAtLevel2++
		}
	}
	if fastAtLevel2 != 1 {
		t.Fatalf("level 2 rank 1 has %d fast nodes, want exactly 1", fastAtLevel2)
	}
}

func TestFastStretchCountBoundedByMaxRank(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		top := graph.GNP(200, 0.02, r.Split())
		tree := build(t, top)
		for v := 0; v < top.G.N(); v++ {
			s := tree.FastStretches(v)
			if len(s) > tree.MaxRank {
				t.Fatalf("trial %d node %d: %d stretches > MaxRank %d", trial, v, len(s), tree.MaxRank)
			}
		}
	}
}

func TestRanksNonIncreasingOnPaths(t *testing.T) {
	top := graph.GNP(300, 0.02, rng.New(2))
	tree := build(t, top)
	for v := 0; v < top.G.N(); v++ {
		path := tree.PathToSource(v)
		for i := 0; i+1 < len(path); i++ {
			child, parent := path[i], path[i+1]
			if tree.Rank[parent] < tree.Rank[child] {
				t.Fatalf("rank increases from %d to %d along path", parent, child)
			}
		}
	}
}

func TestMaxRankLogarithmic(t *testing.T) {
	// MaxRank should stay O(log n) even with promotions. Allow a factor-2
	// envelope over ceil(log2 n) + 1.
	r := rng.New(3)
	for _, n := range []int{64, 256, 1024} {
		for trial := 0; trial < 5; trial++ {
			top := graph.GNP(n, 4.0/float64(n), r.Split())
			tree := build(t, top)
			bound := 2*graph.Log2Ceil(n) + 2
			if tree.MaxRank > bound {
				t.Fatalf("n=%d: MaxRank %d exceeds %d", n, tree.MaxRank, bound)
			}
		}
	}
}

func TestGridAndTreeTopologies(t *testing.T) {
	tops := []graph.Topology{
		graph.Grid(8, 8),
		graph.Grid(1, 20),
		graph.RandomTree(100, rng.New(4)),
		graph.Complete(16),
		graph.Layered(5, 4),
	}
	for _, top := range tops {
		tree := build(t, top)
		if tree.Depth != top.G.Eccentricity(top.Source) {
			t.Fatalf("%s: depth %d != eccentricity %d", top.Name, tree.Depth, top.G.Eccentricity(top.Source))
		}
	}
}

// TestCompleteTreeMatchesCSR: the tree Build makes from Complete's closed
// form equals, field by field, the tree it makes from G(n, 1) — the
// complete graph stored as CSR, whose parents come from walking neighbour
// lists — from several sources, and passes Verify against both graphs.
func TestCompleteTreeMatchesCSR(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 65, 300} {
		implicit, csr := graph.Complete(n).G, graph.GNP(n, 1, rng.New(1)).G
		if csr.Model() != nil || csr.M() != implicit.M() {
			t.Fatalf("G(%d, 1) is not the CSR complete graph", n)
		}
		for _, src := range []int{0, 1 % n, n / 2, n - 1} {
			want, err := Build(csr, src)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Build(implicit, src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d src=%d: closed-form tree %+v, CSR tree %+v", n, src, got, want)
			}
			for _, g := range []*graph.Graph{implicit, csr} {
				if err := got.Verify(g); err != nil {
					t.Fatalf("n=%d src=%d csr=%v: %v", n, src, g.HasCSR(), err)
				}
			}
		}
	}
}

func TestPathToSource(t *testing.T) {
	tree := build(t, graph.Path(5))
	path := tree.PathToSource(4)
	want := []int32{4, 3, 2, 1, 0}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

// Property: Build always yields a tree passing Verify on random connected
// graphs, and MaxRank is within the logarithmic envelope.
func TestQuickBuildVerifies(t *testing.T) {
	f := func(seed uint64, nRaw uint8, dense bool) bool {
		n := int(nRaw)%100 + 2
		p := 2.0 / float64(n)
		if dense {
			p = 0.3
		}
		top := graph.GNP(n, p, rng.New(seed))
		tree, err := Build(top.G, top.Source)
		if err != nil {
			return false
		}
		if err := tree.Verify(top.G); err != nil {
			return false
		}
		return tree.MaxRank <= 2*graph.Log2Ceil(n)+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: every fast stretch length is positive and their sum is at most
// the node's level.
func TestQuickStretchSums(t *testing.T) {
	f := func(seed uint64) bool {
		top := graph.GNP(80, 0.05, rng.New(seed))
		tree, err := Build(top.G, top.Source)
		if err != nil {
			return false
		}
		for v := 0; v < top.G.N(); v++ {
			sum := 0
			for _, s := range tree.FastStretches(v) {
				if s <= 0 {
					return false
				}
				sum += s
			}
			if sum > int(tree.Level[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	top := graph.GNP(4096, 0.002, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(top.G, top.Source); err != nil {
			b.Fatal(err)
		}
	}
}
