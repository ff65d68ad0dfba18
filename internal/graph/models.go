package graph

import (
	"fmt"
	"math/bits"

	"noisyradio/internal/bitset"
)

// CompleteModel is the closed-form description of the complete graph on
// Nodes vertices: degrees, edges and eccentricities computed from the node
// count instead of a stored adjacency, with CompleteCounter answering the
// radio layer's implicit engine. Per-node state is O(1), which is what
// unlocks complete graphs far past the Θ(n²/8)-byte bit-matrix ceiling of
// the dense engine.
//
// The complete graph is the only family whose adjacency is Θ(n²), so the
// only one that needs a closed form at scale; every sparser family is
// stored as CSR at any n. Complete attaches the model to the CSR Topology
// it builds, so the implicit engine can be differentially tested against
// sparse/dense on the same graph; ImplicitComplete builds a CSR-less Graph
// from the model alone for the n = 10⁵–10⁶ regime where materializing
// adjacency is not an option.
//
// The model must agree exactly with Complete's explicit adjacency
// (enforced by test): the implicit engine's bit-identity contract stands
// on it.
type CompleteModel struct{ Nodes int }

func (m CompleteModel) Degree(v int) int      { return m.Nodes - 1 }
func (m CompleteModel) HasEdge(u, v int) bool { return u != v }
func (m CompleteModel) Edges() int64          { n := int64(m.Nodes); return n * (n - 1) / 2 }
func (m CompleteModel) Eccentricity(v int) int {
	if m.Nodes <= 1 {
		return 0
	}
	return 1
}

// CompleteCounter answers, for one round's broadcast set on a complete
// graph, the query at the heart of radio-channel resolution: how many
// neighbours of listener u are transmitting, and which one when the answer
// is exactly one. Every other vertex is a neighbour, so the count is the
// round's broadcaster total minus u's own bit — O(1) per listener after an
// O(n/64) popcount in Begin. The zero value is ready for use. A counter is
// stateful between Begin and the Count calls of one round and not safe
// for concurrent use; each network owns its own.
type CompleteCounter struct {
	tx    *bitset.Set
	total int
	a, b  int32 // two lowest broadcasters, for unique-sender recovery
}

// Begin prepares the counter for a round with broadcast set tx. The
// counter reads tx, and retains it until the next Begin, but never
// mutates it.
func (c *CompleteCounter) Begin(tx *bitset.Set) {
	c.tx = tx
	c.total = tx.Count()
	c.a, c.b = -1, -1
	if c.total <= 2 {
		c.a, c.b = firstTwoSet(tx)
	}
}

// Count returns the number of transmitting neighbours of u, capped at 2
// (the channel only distinguishes silence / unique / collision), and the
// unique transmitting neighbour when the count is 1 (otherwise -1).
func (c *CompleteCounter) Count(u int32) (int, int32) {
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

// ImplicitComplete is Complete without materialized adjacency: no CSR
// arrays, no bit matrix — O(1) state per node, for node counts far past
// the CSR/bit-matrix ceiling. Its graph supports N, M, Degree, HasEdge,
// AvgDegree, MaxDegree, Eccentricity, Connected and Diameter (all answered
// by the model); Neighbors, BFS, Layers and AdjacencyBits panic, because
// they exist to expose materialized adjacency. The radio layer's implicit
// engine runs rounds on such graphs through a CompleteCounter.
func ImplicitComplete(n int) Topology {
	if n < 1 {
		panic("graph: Complete needs n >= 1")
	}
	return Topology{G: &Graph{n: n, model: &CompleteModel{Nodes: n}}, Source: 0, Name: fmt.Sprintf("complete(n=%d)", n)}
}
