// Package graph provides the undirected graph representation and the
// topology generators used throughout the reproduction: paths, stars,
// single links, grids, random graphs and trees, layered pipelines, and the
// worst-case topology (WCT) of Section 5.1.2 built from the
// Ghaffari–Haeupler–Khabbazian throughput lower-bound network.
//
// Graphs are stored in compressed sparse row (CSR) form: immutable after
// construction, cache-friendly to traverse, and cheap to share between
// Monte-Carlo trials. Beside the CSR, Build lays every row out once more as
// word rows — (word index, 64-bit mask) pairs over the row's neighbour
// ids — which the sparse radio engine applies to its listener tally a word
// of listeners at a time (see WordRow). The complete graph alone stores no
// adjacency and answers from its closed form (CompleteModel) instead.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"noisyradio/internal/bitset"
)

// Graph is an immutable undirected graph on vertices 0..N()-1.
//
// Each family has one storage mode. Everything a Builder produces is CSR:
// sorted neighbour lists and the full API, plus each row's word-row form
// (WordRow), which costs 4 bytes per node and 12 per pair. The complete
// graph (Complete) is implicit at every n: it carries only a
// CompleteModel — a closed-form neighbourhood description — so per-node
// state is O(1). It answers degree, edge, BFS, BFS-parent, layer and
// eccentricity queries from the model and panics on the methods that
// exist to expose materialized adjacency (Neighbors, WordRow,
// AdjacencyBits). A graph has a CSR or a model, never both; HasCSR
// distinguishes the modes.
type Graph struct {
	n       int
	offsets []int32 // len n+1; nil for implicit graphs
	adj     []int32 // concatenated sorted neighbour lists

	// Word rows: row v's (word index, mask) pairs are
	// wordIdx[wordOff[v]:wordOff[v+1]] and the same range of wordMask.
	wordOff  []int32 // len n+1; nil for implicit graphs
	wordIdx  []int32
	wordMask []uint64

	// Closed-form neighbourhood description; set exactly on the implicit
	// graphs Complete builds.
	model *CompleteModel

	// Lazily-built bit-matrix adjacency view for the dense radio engine;
	// see AdjacencyBits. Guarded by bitsOnce so concurrent trials sharing
	// the graph build it exactly once.
	bitsOnce sync.Once
	bits     *bitset.Matrix
}

// ErrEmptyGraph indicates a construction with no vertices.
var ErrEmptyGraph = errors.New("graph: graph must have at least one vertex")

// Builder accumulates edges for a Graph.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// newBuilderCap is NewBuilder with room for m edges, for the generators
// that know their edge count: AddEdge then never grows the edge list.
func newBuilderCap(n, m int) *Builder {
	return &Builder{n: n, edges: make([][2]int32, 0, m)}
}

// AddEdge records the undirected edge {u, v}. Self-loops and duplicate edges
// are tolerated and removed at Build time. It panics on out-of-range
// endpoints, which indicates a generator bug.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Build finalises the graph. It returns ErrEmptyGraph for n == 0.
//
// The CSR is laid out by counting sort in O(n + m): count each vertex's
// degree over the non-loop edges, prefix-sum the counts into row
// offsets, and scatter both directions of every edge into their rows.
// Each row is then sorted and deduplicated in place. The generators add
// edges in an order that leaves most rows already ascending, so those
// sorts are close to linear. Finally each compacted row is grouped into
// its word-row pairs (see WordRow): one pass counts them, a second fills
// them.
func (b *Builder) Build() (*Graph, error) {
	if b.n <= 0 {
		return nil, ErrEmptyGraph
	}
	offsets := make([]int32, b.n+1)
	for _, e := range b.edges {
		if e[0] != e[1] {
			offsets[e[0]+1]++
			offsets[e[1]+1]++
		}
	}
	for v := 0; v < b.n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]int32, offsets[b.n])
	next := slices.Clone(offsets[:b.n])
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		adj[next[u]] = v
		next[u]++
		adj[next[v]] = u
		next[v]++
	}
	// Rows only shrink, so each compacted row moves down to the write
	// cursor w without overtaking the rows still to be read. A row's pairs
	// are counted on its compacted copy, the row the graph keeps.
	wordOff := make([]int32, b.n+1)
	w := int32(0)
	for v := 0; v < b.n; v++ {
		row := adj[offsets[v]:offsets[v+1]]
		slices.Sort(row)
		offsets[v] = w
		w += int32(copy(adj[w:], slices.Compact(row)))
		wordOff[v+1] = wordOff[v] + int32(countWords(adj[offsets[v]:w]))
	}
	offsets[b.n] = w
	g := &Graph{n: b.n, offsets: offsets, adj: adj[:w], wordOff: wordOff}
	g.wordIdx = make([]int32, wordOff[b.n])
	g.wordMask = make([]uint64, wordOff[b.n])
	for v := 0; v < b.n; v++ {
		j, last := wordOff[v]-1, int32(-1)
		for _, u := range g.Neighbors(v) {
			if u>>6 != last {
				last = u >> 6
				j++
				g.wordIdx[j] = last
			}
			g.wordMask[j] |= 1 << (uint(u) & 63)
		}
	}
	return g, nil
}

// countWords returns how many distinct 64-id words the ascending row
// touches: the number of pairs in its word row.
func countWords(row []int32) int {
	words, last := 0, int32(-1)
	for _, u := range row {
		if u>>6 != last {
			last = u >> 6
			words++
		}
	}
	return words
}

// MustBuild is Build but panics on error; for use in generators whose
// preconditions guarantee success.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// Model returns the closed-form neighbourhood model of the graph, or nil
// when it has none. Exactly Complete's graphs have one.
func (g *Graph) Model() *CompleteModel { return g.model }

// HasCSR reports whether the graph materializes adjacency (Neighbors and
// AdjacencyBits are available): true for every Builder graph, false
// exactly for Complete's, which have a model instead.
func (g *Graph) HasCSR() bool { return g.offsets != nil }

// M returns the number of undirected edges.
func (g *Graph) M() int {
	if g.offsets == nil {
		return int(g.model.Edges())
	}
	return len(g.adj) / 2
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	if g.offsets == nil {
		return g.model.Degree(v)
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbour list of v. The returned slice
// aliases internal storage and must not be modified. Panics on implicit
// graphs, which exist precisely to avoid materializing neighbour lists.
func (g *Graph) Neighbors(v int) []int32 {
	if g.offsets == nil {
		panic("graph: Neighbors needs materialized adjacency; this is an implicit graph (HasCSR() == false)")
	}
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// WordRow returns v's neighbour set as word-row pairs: words[j] is a word
// index i, covering ids 64i..64i+63, and masks[j] has bit u%64 set for
// every neighbour u in that word. Word indices strictly ascend, no mask is
// zero, and the masks' bits are exactly Neighbors(v), so a row never has
// more pairs than neighbours. A star hub's row of 4096 leaves is 65 pairs;
// a hypercube row is one pair per neighbour, apart from the low dimensions
// that share v's own word. The slices alias internal storage and must not
// be modified. Panics on implicit graphs.
func (g *Graph) WordRow(v int) (words []int32, masks []uint64) {
	if g.offsets == nil {
		panic("graph: WordRow needs materialized adjacency; this is an implicit graph (HasCSR() == false)")
	}
	lo, hi := g.wordOff[v], g.wordOff[v+1]
	return g.wordIdx[lo:hi], g.wordMask[lo:hi]
}

// AdjacencyBits returns the bit-matrix adjacency view: row v is the
// neighbour set of v as a bitset, enabling word-parallel neighbourhood
// queries (64 vertices per AND+popcount). The view costs Θ(n²/8) bytes
// and is built on first use, then cached for the lifetime of the graph;
// it is safe to call from concurrent trials sharing the graph. Each row
// is filled in one pass from its ascending neighbour list. Sparse
// consumers should keep using Neighbors.
func (g *Graph) AdjacencyBits() *bitset.Matrix {
	if g.offsets == nil {
		panic("graph: AdjacencyBits needs materialized adjacency; this is an implicit graph (HasCSR() == false)")
	}
	g.bitsOnce.Do(func() {
		m := bitset.NewMatrix(g.n, g.n)
		for v := 0; v < g.n; v++ {
			m.SetRow(v, g.Neighbors(v))
		}
		g.bits = m
	})
	return g.bits
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if g.offsets == nil {
		return g.model.HasEdge(u, v)
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	return i < len(ns) && ns[i] == int32(v)
}

// BFS returns the vector of hop distances from src; unreachable vertices
// get distance -1. A graph with a model answers in closed form, without
// touching adjacency: 0 at src and 1 everywhere else.
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.n)
	if g.model != nil {
		for i := range dist {
			dist[i] = 1
		}
		dist[src] = 0
		return dist
	}
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] == -1 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// BFSParents returns BFS's distances from src together with each vertex's
// BFS parent: its smallest-id neighbour one level closer to src, or -1 at
// src and at unreachable vertices. A graph with a model answers in closed
// form: src is the only vertex one level above every other.
func (g *Graph) BFSParents(src int) (dist, parent []int32) {
	dist = g.BFS(src)
	parent = make([]int32, g.n)
	for v := range parent {
		parent[v] = -1
		if v == src || dist[v] < 0 {
			continue
		}
		if g.model != nil {
			parent[v] = int32(src)
			continue
		}
		for _, u := range g.Neighbors(v) {
			if dist[u] == dist[v]-1 {
				parent[v] = u
				break
			}
		}
	}
	return dist, parent
}

// Eccentricity returns the maximum BFS distance from src, or -1 if some
// vertex is unreachable. A graph with a model answers from its closed
// form (and is connected by construction).
func (g *Graph) Eccentricity(src int) int {
	if g.model != nil {
		return g.model.Eccentricity(src)
	}
	dist := g.BFS(src)
	ecc := int32(0)
	for _, d := range dist {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return int(ecc)
}

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool {
	return g.Eccentricity(0) >= 0
}

// Diameter computes the exact diameter by running BFS from every vertex.
// O(n·m); intended for tests and modest experiment sizes. Returns -1 for
// disconnected graphs.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.n; v++ {
		e := g.Eccentricity(v)
		if e == -1 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// Layers groups vertices by BFS distance from src: Layers(src)[d] lists the
// vertices at distance exactly d, in ascending id. Unreachable vertices
// are omitted.
func (g *Graph) Layers(src int) [][]int32 {
	dist := g.BFS(src)
	maxD := int32(-1)
	for _, d := range dist {
		if d > maxD {
			maxD = d
		}
	}
	layers := make([][]int32, maxD+1)
	for v, d := range dist {
		if d >= 0 {
			layers[d] = append(layers[d], int32(v))
		}
	}
	return layers
}

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}
