package graph

import (
	"fmt"
	"math"

	"noisyradio/internal/rng"
)

// Topology bundles a graph with its broadcast source, matching the paper's
// "(G, s) is often referred to as the topology".
type Topology struct {
	G      *Graph
	Source int
	Name   string
}

// Path returns the path graph on n vertices with source at one end — the
// workload of Lemma 10 (FASTBC deterioration) and the diameter sweeps.
func Path(n int) Topology {
	if n < 1 {
		panic("graph: Path needs n >= 1")
	}
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("path(n=%d)", n)}
}

// Star returns the star topology of Section 5.1.1: source 0 adjacent to n
// leaves (n+1 vertices total).
func Star(leaves int) Topology {
	if leaves < 1 {
		panic("graph: Star needs at least one leaf")
	}
	b := NewBuilder(leaves + 1)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, i)
	}
	return Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("star(leaves=%d)", leaves)}
}

// SingleLink returns the two-vertex topology of Appendix A.
func SingleLink() Topology {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	return Topology{G: b.MustBuild(), Source: 0, Name: "single-link"}
}

// Complete returns the complete graph on n vertices with source 0. It
// stores no adjacency: the graph carries only a CompleteModel, which
// answers degrees, edges, BFS distances, BFS parents and layers in closed
// form, so per-node state is O(1) at any n. It panics for n < 1.
func Complete(n int) Topology {
	if n < 1 {
		panic("graph: Complete needs n >= 1")
	}
	return Topology{G: &Graph{n: n, model: &CompleteModel{Nodes: n}}, Source: 0, Name: fmt.Sprintf("complete(n=%d)", n)}
}

// Grid returns the rows×cols grid with source at the corner (0,0). Vertex
// (r,c) has index r*cols+c.
func Grid(rows, cols int) Topology {
	if rows < 1 || cols < 1 {
		panic("graph: Grid needs positive dimensions")
	}
	b := NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				b.AddEdge(v, v+1)
			}
			if r+1 < rows {
				b.AddEdge(v, v+cols)
			}
		}
	}
	return Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("grid(%dx%d)", rows, cols)}
}

// RandomTree returns a uniform random recursive tree on n vertices rooted at
// the source: vertex i attaches to a uniform earlier vertex.
func RandomTree(n int, r *rng.Stream) Topology {
	if n < 1 {
		panic("graph: RandomTree needs n >= 1")
	}
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, r.Intn(i))
	}
	return Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("random-tree(n=%d)", n)}
}

// GNP returns a connected Erdős–Rényi G(n, p) sample. To guarantee
// connectivity (required for broadcast to terminate) a random spanning tree
// is superimposed; for p above the connectivity threshold this perturbs the
// distribution negligibly.
func GNP(n int, p float64, r *rng.Stream) Topology {
	if n < 1 {
		panic("graph: GNP needs n >= 1")
	}
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, r.Intn(i)) // spanning-tree backbone
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(p) {
				b.AddEdge(i, j)
			}
		}
	}
	return Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("gnp(n=%d,p=%.3g)", n, p)}
}

// Layered returns a pipeline of numLayers layers of the given width, with a
// single source in front; consecutive layers are completely connected.
// This is the layered-broadcast substrate behind Lemma 21's batching
// schedule and the transformation experiments (Lemmas 25–26): diameter
// numLayers, contention width per layer.
func Layered(numLayers, width int) Topology {
	if numLayers < 1 || width < 1 {
		panic("graph: Layered needs positive dimensions")
	}
	n := 1 + numLayers*width
	b := NewBuilder(n)
	vertex := func(layer, i int) int { return 1 + layer*width + i }
	for i := 0; i < width; i++ {
		b.AddEdge(0, vertex(0, i))
	}
	for l := 0; l+1 < numLayers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				b.AddEdge(vertex(l, i), vertex(l+1, j))
			}
		}
	}
	return Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("layered(D=%d,w=%d)", numLayers, width)}
}

// Cycle returns the cycle graph on n >= 3 vertices with source 0.
// Diameter ⌊n/2⌋; every vertex has degree 2, so Decay-style contention is
// minimal while two fronts propagate simultaneously.
func Cycle(n int) Topology {
	if n < 3 {
		panic("graph: Cycle needs n >= 3")
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("cycle(n=%d)", n)}
}

// MaxHypercubeDim is the largest dimension Hypercube builds: 2^20 nodes,
// whose CSR takes about 84 MiB.
const MaxHypercubeDim = 20

// Hypercube returns the dim-dimensional hypercube (2^dim vertices) with
// source 0: diameter dim = log2 n, degree dim everywhere — the opposite
// regime from the path (dense, tiny diameter). dim is at most
// MaxHypercubeDim.
func Hypercube(dim int) Topology {
	if dim < 1 || dim > MaxHypercubeDim {
		panic(fmt.Sprintf("graph: Hypercube needs 1 <= dim <= %d", MaxHypercubeDim))
	}
	n := 1 << dim
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for d := 0; d < dim; d++ {
			u := v ^ (1 << d)
			if u > v {
				b.AddEdge(v, u)
			}
		}
	}
	return Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("hypercube(dim=%d)", dim)}
}

// BinaryTree returns the complete binary tree of the given depth rooted at
// the source (2^(depth+1)-1 vertices). Its GBST rank is exactly depth+1,
// the extremal case of the Gaber–Mansour bound (Lemma 7).
func BinaryTree(depth int) Topology {
	if depth < 0 || depth > 24 {
		panic("graph: BinaryTree needs 0 <= depth <= 24")
	}
	n := (1 << (depth + 1)) - 1
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, (v-1)/2)
	}
	return Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("binary-tree(depth=%d)", depth)}
}

// Caterpillar returns a path of pathLen spine vertices with legsPerNode
// leaves hanging from each spine vertex — long diameter plus local
// contention, a middle ground between Path and Star.
func Caterpillar(pathLen, legsPerNode int) Topology {
	if pathLen < 1 || legsPerNode < 0 {
		panic("graph: Caterpillar needs pathLen >= 1 and legsPerNode >= 0")
	}
	n := pathLen * (1 + legsPerNode)
	b := NewBuilder(n)
	for i := 0; i+1 < pathLen; i++ {
		b.AddEdge(i, i+1)
	}
	next := pathLen
	for i := 0; i < pathLen; i++ {
		for l := 0; l < legsPerNode; l++ {
			b.AddEdge(i, next)
			next++
		}
	}
	return Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("caterpillar(spine=%d,legs=%d)", pathLen, legsPerNode)}
}

// Lollipop returns a complete binary tree of the given depth rooted at the
// source with a path of pathLen edges attached to the source.
//
// This is the workload that exhibits Lemma 10: the binary tree forces the
// GBST's maximum rank up to treeDepth+1 = Θ(log n), so FASTBC's fast-wave
// period is Θ(log n) rounds and every fault on the path costs the message a
// Θ(log n)-round wait — while Robust FASTBC and Decay are unaffected.
func Lollipop(treeDepth, pathLen int) Topology {
	if treeDepth < 1 || pathLen < 1 {
		panic("graph: Lollipop needs positive dimensions")
	}
	treeN := (1 << (treeDepth + 1)) - 1
	n := treeN + pathLen
	b := NewBuilder(n)
	for v := 1; v < treeN; v++ {
		b.AddEdge(v, (v-1)/2)
	}
	// Path vertices treeN..n-1 hang off the root (vertex 0).
	b.AddEdge(0, treeN)
	for v := treeN; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return Topology{G: b.MustBuild(), Source: 0, Name: fmt.Sprintf("lollipop(depth=%d,path=%d)", treeDepth, pathLen)}
}

// WCT is the worst-case topology of Section 5.1.2 (Figure 2): a source, a
// set of sender nodes, and clusters of receiver nodes. Every node of a
// cluster shares the same sender-neighbourhood, so a cluster either receives
// a packet collision-free as a unit or not at all, turning each cluster into
// the star of Lemma 15.
//
// Sender-neighbourhoods follow the Ghaffari–Haeupler–Khabbazian [19]
// multi-scale construction: clusters come in scales j = 1..J with
// neighbourhood size 2^j drawn uniformly from the senders. A broadcasting
// sender set of any density then leaves all but ~1/J of the scales either
// starved (no broadcasting neighbour) or collided (more than one), which is
// the Lemma 18 property.
type WCT struct {
	Topology
	Senders      []int32   // sender node ids
	Clusters     [][]int32 // cluster id -> member node ids
	ClusterHoods [][]int32 // cluster id -> sender-neighbourhood (indices into Senders)
	Scales       []int     // cluster id -> scale j (neighbourhood size 2^j)
}

// WCTParams sizes a WCT instance.
type WCTParams struct {
	Senders          int // number of sender nodes (paper: Θ(√n))
	ClustersPerScale int // clusters at each scale (paper: Θ̃(√n)/J total)
	ClusterSize      int // nodes per cluster (paper: Θ̃(√n))
}

// DefaultWCTParams chooses parameters so that the total node count is
// approximately n, following the paper's Θ(√n) shapes.
func DefaultWCTParams(n int) WCTParams {
	m := int(math.Sqrt(float64(n)))
	if m < 4 {
		m = 4
	}
	scales := log2floor(m)
	clustersPerScale := m / scales
	if clustersPerScale < 1 {
		clustersPerScale = 1
	}
	// Remaining budget goes to cluster size.
	clusterNodes := n - 1 - m
	size := clusterNodes / (clustersPerScale * scales)
	if size < 1 {
		size = 1
	}
	return WCTParams{Senders: m, ClustersPerScale: clustersPerScale, ClusterSize: size}
}

// NewWCT builds a worst-case topology instance.
func NewWCT(p WCTParams, r *rng.Stream) *WCT {
	if p.Senders < 2 || p.ClustersPerScale < 1 || p.ClusterSize < 1 {
		panic(fmt.Sprintf("graph: invalid WCT params %+v", p))
	}
	scales := log2floor(p.Senders)
	numClusters := scales * p.ClustersPerScale
	n := 1 + p.Senders + numClusters*p.ClusterSize
	b := NewBuilder(n)
	w := &WCT{
		Senders:      make([]int32, p.Senders),
		Clusters:     make([][]int32, 0, numClusters),
		ClusterHoods: make([][]int32, 0, numClusters),
		Scales:       make([]int, 0, numClusters),
	}
	// Node layout: 0 = source, 1..Senders = senders, remainder = clusters.
	for i := 0; i < p.Senders; i++ {
		id := 1 + i
		w.Senders[i] = int32(id)
		b.AddEdge(0, id)
	}
	next := 1 + p.Senders
	for j := 1; j <= scales; j++ {
		deg := 1 << j
		if deg > p.Senders {
			deg = p.Senders
		}
		for c := 0; c < p.ClustersPerScale; c++ {
			hood := r.SampleK(p.Senders, deg)
			hood32 := make([]int32, len(hood))
			for i, h := range hood {
				hood32[i] = int32(h)
			}
			members := make([]int32, p.ClusterSize)
			for i := 0; i < p.ClusterSize; i++ {
				id := next
				next++
				members[i] = int32(id)
				for _, h := range hood {
					b.AddEdge(int(w.Senders[h]), id)
				}
			}
			w.Clusters = append(w.Clusters, members)
			w.ClusterHoods = append(w.ClusterHoods, hood32)
			w.Scales = append(w.Scales, j)
		}
	}
	w.Topology = Topology{
		G:      b.MustBuild(),
		Source: 0,
		Name:   fmt.Sprintf("wct(senders=%d,clusters=%d,size=%d)", p.Senders, numClusters, p.ClusterSize),
	}
	return w
}

// CollisionFreeClusters returns how many clusters would receive a packet
// collision-free if exactly the senders with the given indices broadcast:
// a cluster counts iff exactly one of its neighbourhood senders is in the
// set. This is the quantity bounded by Lemma 18.
func (w *WCT) CollisionFreeClusters(broadcasting []int) int {
	active := make(map[int32]bool, len(broadcasting))
	for _, s := range broadcasting {
		active[int32(s)] = true
	}
	count := 0
	for _, hood := range w.ClusterHoods {
		hits := 0
		for _, h := range hood {
			if active[w.Senders[h]] {
				hits++
				if hits > 1 {
					break
				}
			}
		}
		if hits == 1 {
			count++
		}
	}
	return count
}

// NumClusters returns the number of clusters.
func (w *WCT) NumClusters() int { return len(w.Clusters) }

func log2floor(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Log2Floor exposes the integer floor of log2 for sizing code in callers.
func Log2Floor(n int) int { return log2floor(n) }

// Log2Ceil returns the integer ceiling of log2(n) for n >= 1.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	l := log2floor(n)
	if 1<<l < n {
		l++
	}
	return l
}
