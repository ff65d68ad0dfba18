package graph

import (
	"testing"
	"testing/quick"

	"noisyradio/internal/rng"
)

func TestCycleStructure(t *testing.T) {
	top := Cycle(8)
	g := top.G
	if g.N() != 8 || g.M() != 8 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	for v := 0; v < 8; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("vertex %d degree %d", v, g.Degree(v))
		}
	}
	if got := g.Diameter(); got != 4 {
		t.Fatalf("diameter = %d, want 4", got)
	}
	odd := Cycle(9)
	if got := odd.G.Diameter(); got != 4 {
		t.Fatalf("odd cycle diameter = %d, want 4", got)
	}
}

func TestHypercubeStructure(t *testing.T) {
	top := Hypercube(4)
	g := top.G
	if g.N() != 16 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 4*16/2 {
		t.Fatalf("M = %d, want 32", g.M())
	}
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("vertex %d degree %d", v, g.Degree(v))
		}
	}
	if got := g.Diameter(); got != 4 {
		t.Fatalf("diameter = %d, want 4", got)
	}
	// Distance from 0 equals popcount.
	dist := g.BFS(0)
	for v := 0; v < 16; v++ {
		pc := 0
		for x := v; x != 0; x &= x - 1 {
			pc++
		}
		if int(dist[v]) != pc {
			t.Fatalf("dist[%d] = %d, want popcount %d", v, dist[v], pc)
		}
	}
}

func TestBinaryTreeStructure(t *testing.T) {
	top := BinaryTree(3)
	g := top.G
	if g.N() != 15 || g.M() != 14 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	if got := g.Eccentricity(0); got != 3 {
		t.Fatalf("root eccentricity = %d", got)
	}
	zero := BinaryTree(0)
	if zero.G.N() != 1 {
		t.Fatalf("depth-0 tree N = %d", zero.G.N())
	}
}

func TestCaterpillarStructure(t *testing.T) {
	top := Caterpillar(5, 3)
	g := top.G
	if g.N() != 20 {
		t.Fatalf("N = %d, want 20", g.N())
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	// Spine interior vertices have degree 2 + legs.
	if got := g.Degree(2); got != 5 {
		t.Fatalf("spine degree = %d, want 5", got)
	}
	// Legs have degree 1.
	if got := g.Degree(19); got != 1 {
		t.Fatalf("leg degree = %d", got)
	}
	// No legs degenerates to a path.
	bare := Caterpillar(4, 0)
	if bare.G.N() != 4 || bare.G.Diameter() != 3 {
		t.Fatalf("bare caterpillar: N=%d D=%d", bare.G.N(), bare.G.Diameter())
	}
}

func TestLollipopStructure(t *testing.T) {
	top := Lollipop(3, 10)
	g := top.G
	wantN := (1<<4 - 1) + 10
	if g.N() != wantN {
		t.Fatalf("N = %d, want %d", g.N(), wantN)
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	// The far end of the path is at distance pathLen from the source.
	if got := g.BFS(top.Source)[g.N()-1]; got != 10 {
		t.Fatalf("path end distance = %d, want 10", got)
	}
}

func TestNewGeneratorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{name: "cycle too small", fn: func() { Cycle(2) }},
		{name: "hypercube zero", fn: func() { Hypercube(0) }},
		{name: "hypercube huge", fn: func() { Hypercube(21) }},
		{name: "binary tree negative", fn: func() { BinaryTree(-1) }},
		{name: "caterpillar zero spine", fn: func() { Caterpillar(0, 1) }},
		{name: "caterpillar negative legs", fn: func() { Caterpillar(1, -1) }},
		{name: "lollipop zero", fn: func() { Lollipop(0, 5) }},
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

// Property: every generator yields a connected graph whose source is valid.
func TestQuickGeneratorsConnected(t *testing.T) {
	f := func(seed uint64, a, b uint8) bool {
		r := rng.New(seed)
		n := int(a)%40 + 3
		m := int(b)%5 + 1
		tops := []Topology{
			Cycle(n),
			Hypercube(m),
			BinaryTree(m),
			Caterpillar(n, m%3),
			Lollipop(m, n),
			RandomTree(n, r),
		}
		for _, top := range tops {
			if !top.G.Connected() {
				return false
			}
			if top.Source < 0 || top.Source >= top.G.N() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
