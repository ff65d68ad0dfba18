package graph

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"noisyradio/internal/rng"
)

func TestBuilderEmptyGraph(t *testing.T) {
	if _, err := NewBuilder(0).Build(); !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("err = %v, want ErrEmptyGraph", err)
	}
}

func TestBuilderDedupeAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse
	b.AddEdge(0, 1) // exact duplicate
	b.AddEdge(2, 2) // self loop dropped
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M() = %d, want 1", g.M())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self loop retained: deg(2) = %d", g.Degree(2))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("phantom edge (0,2)")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(2, 4)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	ns := g.Neighbors(2)
	want := []int32{0, 3, 4}
	if len(ns) != len(want) {
		t.Fatalf("Neighbors(2) = %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", ns, want)
		}
	}
}

func TestBFSPath(t *testing.T) {
	top := Path(5)
	dist := top.G.BFS(0)
	for i := 0; i < 5; i++ {
		if dist[i] != int32(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
}

// TestBFSParents: on a CSR graph each vertex's parent is its
// smallest-id neighbour one level closer to the source, and the source
// and unreachable vertices get -1.
func TestBFSParents(t *testing.T) {
	// On the 3×4 grid from corner 0, vertex 5 = (1,1) has neighbours 1 and
	// 4 on level 1 and takes 1; vertex 10 = (2,2) picks 6 over 9.
	dist, parent := Grid(3, 4).G.BFSParents(0)
	wantParent := []int32{-1, 0, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7}
	if !slices.Equal(parent, wantParent) {
		t.Fatalf("grid parents %v, want %v", parent, wantParent)
	}
	if !slices.Equal(dist, Grid(3, 4).G.BFS(0)) {
		t.Fatalf("grid distances %v differ from BFS", dist)
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	dist, parent = b.MustBuild().BFSParents(1)
	if !slices.Equal(parent, []int32{1, -1, -1, -1}) || !slices.Equal(dist, []int32{1, 0, -1, -1}) {
		t.Fatalf("disconnected graph: parents %v, distances %v", parent, dist)
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	dist := g.BFS(0)
	if dist[2] != -1 {
		t.Fatalf("unreachable vertex distance = %d, want -1", dist[2])
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if g.Eccentricity(0) != -1 {
		t.Fatal("eccentricity of disconnected graph should be -1")
	}
	if g.Diameter() != -1 {
		t.Fatal("diameter of disconnected graph should be -1")
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		top  Topology
		want int
	}{
		{name: "path 10", top: Path(10), want: 9},
		{name: "star", top: Star(7), want: 2},
		{name: "single link", top: SingleLink(), want: 1},
		{name: "complete 6", top: Complete(6), want: 1},
		{name: "grid 3x4", top: Grid(3, 4), want: 5},
		{name: "single vertex", top: Path(1), want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.top.G.Diameter(); got != tt.want {
				t.Fatalf("Diameter = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestLayersPartition(t *testing.T) {
	top := Grid(4, 4)
	layers := top.G.Layers(top.Source)
	total := 0
	for d, layer := range layers {
		for _, v := range layer {
			total++
			if int(top.G.BFS(top.Source)[v]) != d {
				t.Fatalf("vertex %d in layer %d has wrong distance", v, d)
			}
		}
	}
	if total != top.G.N() {
		t.Fatalf("layers cover %d of %d vertices", total, top.G.N())
	}
}

func TestStarStructure(t *testing.T) {
	top := Star(10)
	g := top.G
	if g.N() != 11 {
		t.Fatalf("N = %d", g.N())
	}
	if g.Degree(0) != 10 {
		t.Fatalf("hub degree = %d", g.Degree(0))
	}
	for v := 1; v <= 10; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("leaf %d degree = %d", v, g.Degree(v))
		}
	}
}

func TestGridStructure(t *testing.T) {
	top := Grid(3, 3)
	g := top.G
	if g.N() != 9 || g.M() != 12 {
		t.Fatalf("grid 3x3: N=%d M=%d, want 9, 12", g.N(), g.M())
	}
	if g.Degree(4) != 4 { // centre
		t.Fatalf("centre degree = %d", g.Degree(4))
	}
	if g.Degree(0) != 2 { // corner
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 10, 100} {
		top := RandomTree(n, r)
		if top.G.M() != n-1 {
			t.Fatalf("n=%d: M = %d, want %d", n, top.G.M(), n-1)
		}
		if !top.G.Connected() {
			t.Fatalf("n=%d: tree not connected", n)
		}
	}
}

func TestGNPConnected(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{2, 20, 100} {
		top := GNP(n, 0.05, r)
		if !top.G.Connected() {
			t.Fatalf("n=%d: GNP sample not connected", n)
		}
	}
}

func TestLayeredStructure(t *testing.T) {
	top := Layered(4, 3)
	g := top.G
	if g.N() != 13 {
		t.Fatalf("N = %d, want 13", g.N())
	}
	// Source reaches the last layer in exactly numLayers hops.
	if ecc := g.Eccentricity(top.Source); ecc != 4 {
		t.Fatalf("eccentricity from source = %d, want 4", ecc)
	}
	layers := g.Layers(top.Source)
	for d := 1; d <= 4; d++ {
		if len(layers[d]) != 3 {
			t.Fatalf("layer %d has %d vertices, want 3", d, len(layers[d]))
		}
	}
}

func TestMaxDegree(t *testing.T) {
	if got := Star(9).G.MaxDegree(); got != 9 {
		t.Fatalf("MaxDegree = %d", got)
	}
	if got := Path(5).G.MaxDegree(); got != 2 {
		t.Fatalf("MaxDegree = %d", got)
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{name: "path zero", fn: func() { Path(0) }},
		{name: "star zero", fn: func() { Star(0) }},
		{name: "complete zero", fn: func() { Complete(0) }},
		{name: "grid zero", fn: func() { Grid(0, 3) }},
		{name: "layered zero", fn: func() { Layered(0, 1) }},
		{name: "tree zero", fn: func() { RandomTree(0, rng.New(1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestLog2Helpers(t *testing.T) {
	tests := []struct {
		n, floor, ceil int
	}{
		{n: 1, floor: 0, ceil: 0},
		{n: 2, floor: 1, ceil: 1},
		{n: 3, floor: 1, ceil: 2},
		{n: 4, floor: 2, ceil: 2},
		{n: 1000, floor: 9, ceil: 10},
		{n: 1024, floor: 10, ceil: 10},
	}
	for _, tt := range tests {
		if got := Log2Floor(tt.n); got != tt.floor {
			t.Errorf("Log2Floor(%d) = %d, want %d", tt.n, got, tt.floor)
		}
		if got := Log2Ceil(tt.n); got != tt.ceil {
			t.Errorf("Log2Ceil(%d) = %d, want %d", tt.n, got, tt.ceil)
		}
	}
}

// Property: BFS distances satisfy the triangle-ish consistency |d(u)-d(v)|<=1
// across every edge, on random connected graphs.
func TestQuickBFSEdgeConsistency(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%60 + 2
		top := GNP(n, 0.1, rng.New(seed))
		dist := top.G.BFS(top.Source)
		for u := 0; u < n; u++ {
			for _, v := range top.G.Neighbors(u) {
				d := dist[u] - dist[v]
				if d < -1 || d > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: handshake lemma — degree sum equals 2M.
func TestQuickHandshake(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%60 + 2
		top := GNP(n, 0.15, rng.New(seed))
		sum := 0
		for v := 0; v < n; v++ {
			sum += top.G.Degree(v)
		}
		return sum == 2*top.G.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBuild times the explicit topologies the experiment tables and
// the sweep service build, generator edge loops included; the CSR build
// in Builder.Build is most of each.
func BenchmarkBuild(b *testing.B) {
	cases := []struct {
		name  string
		build func() *Graph
	}{
		{"gnp-1024-0.25", func() *Graph { return GNP(1024, 0.25, rng.New(1)).G }},
		{"grid-32x32", func() *Graph { return Grid(32, 32).G }},
		{"hypercube-10", func() *Graph { return Hypercube(10).G }},
		{"wct-4096", func() *Graph { return NewWCT(DefaultWCTParams(4096), rng.New(1)).G }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.build()
			}
		})
	}
	// The dense engine's bit-matrix view, built once per graph on first
	// use: each iteration times it on a fresh Builder-made complete graph
	// on 1024 vertices.
	b.Run("adjacency-bits-complete-1024", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := builderComplete(1024).G
			b.StartTimer()
			g.AdjacencyBits()
		}
	})
}

// TestWordRowsOfGenerators: every generator's word rows regroup its CSR
// rows exactly (checkWordRow), and the pair counts the sparse engine's
// cost rests on hold: a star hub's 4096 leaves (ids 1–4096) are 65 pairs,
// and a Hypercube(10) row is 5 — the six low dimensions share the node's
// own word, and each of the other four neighbours owns one.
func TestWordRowsOfGenerators(t *testing.T) {
	wct := NewWCT(DefaultWCTParams(4096), rng.New(1))
	for _, top := range []Topology{
		Star(4096), Hypercube(10), Grid(9, 70), Path(130), Cycle(129),
		Layered(4, 127), BinaryTree(7), Caterpillar(5, 30), Lollipop(3, 70),
		RandomTree(300, rng.New(2)), GNP(200, 0.3, rng.New(3)), wct.Topology,
	} {
		for v := 0; v < top.G.N(); v++ {
			checkWordRow(t, top.G, v)
		}
	}
	if words, _ := Star(4096).G.WordRow(0); len(words) != 65 {
		t.Errorf("Star(4096) hub row has %d pairs, want 65", len(words))
	}
	cube := Hypercube(10).G
	for v := 0; v < cube.N(); v++ {
		if words, _ := cube.WordRow(v); len(words) != 5 {
			t.Fatalf("Hypercube(10) node %d row has %d pairs, want 5", v, len(words))
		}
	}
}
