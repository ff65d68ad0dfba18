package graph

import (
	"fmt"
	"math/bits"

	"noisyradio/internal/bitset"
)

// A NeighborModel is a closed-form description of a generator's
// neighbourhood structure: everything the radio layer's implicit engine
// needs to resolve a round — transmitting-neighbour counts, degrees,
// eccentricities — computed from the generator's parameters instead of a
// stored adjacency. Per-node state is O(1), which is what unlocks
// topologies far past the Θ(n²/8)-byte bit-matrix ceiling of the dense
// engine.
//
// CompleteModel is the one model: the complete graph is the only family
// whose adjacency is Θ(n²), so the only one that needs a closed form at
// scale; every sparser family is stored as CSR at any n. Complete attaches
// the model to the CSR Topology it builds, so the implicit engine can be
// differentially tested against sparse/dense on the same graph.
// NewImplicit builds a CSR-less Graph from a model alone for the
// n = 10⁵–10⁶ regime where materializing adjacency is not an option.
//
// A model must agree exactly with the generator's explicit adjacency
// (enforced by test): the implicit engine's bit-identity contract stands
// on it.
type NeighborModel interface {
	// N returns the number of vertices.
	N() int
	// Degree returns the degree of vertex v.
	Degree(v int) int
	// HasEdge reports whether {u, v} is an edge.
	HasEdge(u, v int) bool
	// Eccentricity returns the maximum hop distance from v (the graphs
	// described by models are connected, so this is always >= 0).
	Eccentricity(v int) int
	// Edges returns the number of undirected edges.
	Edges() int64
	// NewTxCounter returns a fresh per-round transmitting-neighbour
	// counter over this model. Counters are stateful between Begin and the
	// Count calls of one round and are not safe for concurrent use; each
	// network owns its own.
	NewTxCounter() TxCounter
}

// A TxCounter answers, for one round's broadcast set, the query at the
// heart of radio-channel resolution: how many neighbours of listener u are
// transmitting, and which one when the answer is exactly one.
type TxCounter interface {
	// Begin prepares the counter for a round with broadcast set tx. The
	// counter reads tx (and may retain it until the next Begin) but never
	// mutates it.
	Begin(tx *bitset.Set)
	// Count returns the number of transmitting neighbours of u, capped at
	// 2 (the channel only distinguishes silence / unique / collision), and
	// the unique transmitting neighbour when the count is 1 (otherwise the
	// second value is unspecified).
	Count(u int32) (count int, from int32)
}

// firstTwoSet returns the two lowest set bits of tx (-1 when absent).
func firstTwoSet(tx *bitset.Set) (a, b int32) {
	a, b = -1, -1
	words := tx.Words()
	lo, hi := tx.NonzeroRange()
	for wi := lo; wi < hi; wi++ {
		for w := words[wi]; w != 0; w &= w - 1 {
			v := int32(wi*64 + bits.TrailingZeros64(w))
			if a < 0 {
				a = v
			} else {
				return a, v
			}
		}
	}
	return a, b
}

// CompleteModel describes the complete graph on N vertices.
type CompleteModel struct{ Nodes int }

func (m CompleteModel) N() int                { return m.Nodes }
func (m CompleteModel) Degree(v int) int      { return m.Nodes - 1 }
func (m CompleteModel) HasEdge(u, v int) bool { return u != v }
func (m CompleteModel) Edges() int64          { n := int64(m.Nodes); return n * (n - 1) / 2 }
func (m CompleteModel) Eccentricity(v int) int {
	if m.Nodes <= 1 {
		return 0
	}
	return 1
}
func (m CompleteModel) NewTxCounter() TxCounter { return &completeCounter{} }

// completeCounter: every other vertex is a neighbour, so the count is the
// round's broadcaster total minus u's own bit — O(1) per listener after an
// O(n/64) popcount in Begin.
type completeCounter struct {
	tx    *bitset.Set
	total int
	a, b  int32 // two lowest broadcasters, for unique-sender recovery
}

func (c *completeCounter) Begin(tx *bitset.Set) {
	c.tx = tx
	c.total = tx.Count()
	c.a, c.b = -1, -1
	if c.total <= 2 {
		c.a, c.b = firstTwoSet(tx)
	}
}

func (c *completeCounter) Count(u int32) (int, int32) {
	n := c.total
	if c.tx.Test(int(u)) {
		n--
	}
	switch {
	case n <= 0:
		return 0, -1
	case n == 1:
		if c.a != u {
			return 1, c.a
		}
		return 1, c.b
	}
	return 2, -1
}

// NewImplicit builds a Graph whose adjacency exists only in closed form:
// no CSR arrays, no bit matrix — per-node state is O(1). Such a graph
// supports N, M, Degree, HasEdge, AvgDegree, MaxDegree, Eccentricity,
// Connected and Diameter (all answered by the model); Neighbors, BFS,
// Layers and AdjacencyBits panic, because they exist to expose
// materialized adjacency. The radio layer's implicit engine runs rounds on
// such graphs through the model's TxCounter.
func NewImplicit(m NeighborModel) *Graph {
	if m.N() < 1 {
		panic("graph: NewImplicit needs a model with at least one vertex")
	}
	return &Graph{n: m.N(), model: m}
}

// ImplicitComplete is Complete without materialized adjacency: O(1) state
// per node, for node counts far past the CSR/bit-matrix ceiling.
func ImplicitComplete(n int) Topology {
	if n < 1 {
		panic("graph: Complete needs n >= 1")
	}
	return Topology{G: NewImplicit(CompleteModel{Nodes: n}), Source: 0, Name: fmt.Sprintf("complete(n=%d)", n)}
}
