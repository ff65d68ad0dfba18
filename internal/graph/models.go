package graph

// CompleteModel is the closed-form description of the complete graph on
// Nodes vertices: degrees, edges, BFS distances and eccentricities
// computed from the node count instead of a stored adjacency. The radio
// layer's implicit engine resolves each round from the broadcaster
// total alone, since every listener hears every broadcaster. Per-node
// state is O(1), which is what unlocks complete graphs far past the
// Θ(n²/8)-byte bit-matrix ceiling of the dense engine.
//
// The complete graph is the only family whose adjacency is Θ(n²), so the
// only one with a closed form; Complete builds its graphs from the model
// alone at every n, and every sparser family is stored as CSR at any n.
//
// The model must agree exactly with the Builder's complete graph (enforced
// by test): the implicit engine's bit-identity contract stands on it.
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
