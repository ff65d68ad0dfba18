package graph

import "fmt"

// CompleteModel is the closed-form description of the complete graph on
// Nodes vertices: degrees, edges, BFS distances and eccentricities
// computed from the node count instead of a stored adjacency. The radio
// layer's implicit engine resolves each round from the broadcaster total
// alone, since every listener hears every broadcaster. Per-node state is
// O(1), which is what unlocks complete graphs far past the Θ(n²/8)-byte
// bit-matrix ceiling of the dense engine.
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

// ImplicitComplete is Complete without materialized adjacency: no CSR
// arrays, no bit matrix — O(1) state per node, for node counts far past
// the CSR/bit-matrix ceiling. Its graph supports N, M, Degree, HasEdge,
// AvgDegree, MaxDegree, BFS, Eccentricity, Connected and Diameter (all
// answered by the model); Neighbors, Layers and AdjacencyBits panic,
// because they exist to expose materialized adjacency. The radio layer's
// implicit engine is the only one that runs rounds on such graphs.
func ImplicitComplete(n int) Topology {
	if n < 1 {
		panic("graph: Complete needs n >= 1")
	}
	return Topology{G: &Graph{n: n, model: &CompleteModel{Nodes: n}}, Source: 0, Name: fmt.Sprintf("complete(n=%d)", n)}
}
