// Package gbst builds the gathering–broadcasting spanning trees (GBSTs) of
// Gąsieniec, Peleg and Xin that the FASTBC family of algorithms runs on
// (Section 3.4.2 of the paper).
//
// A ranked BFS tree assigns every node an integral rank: leaves have rank 1;
// a node whose children have maximum rank r gets rank r if exactly one child
// attains r and rank r+1 otherwise. A ranked BFS tree is a GBST iff no two
// distinct nodes on the same level with the same rank r have two distinct
// parents both of rank r — equivalently, each (level, rank) pair carries at
// most one fast edge (an edge connecting a node to a same-rank child).
//
// Construction: ranks are computed bottom-up over a BFS tree; whenever a
// (level, rank) pair would carry more than one fast edge, all but one of the
// offending parents are promoted one rank, which turns their edge into a
// slow (rank-decreasing) edge. Promotion preserves the two properties the
// broadcast algorithms rely on: ranks are non-increasing along root-to-leaf
// paths, and every equal-rank tree edge is a fast edge, so any root-to-leaf
// path decomposes into at most MaxRank fast stretches joined by at most
// MaxRank slow edges. This re-ranking is visible in the paper's own Figure
// 1(a)→1(b). MaxRank stays O(log n) (Gaber–Mansour bound plus promotions;
// asserted empirically by the tests).
package gbst

import (
	"errors"
	"fmt"

	"noisyradio/internal/graph"
)

// ErrDisconnected is returned when the source cannot reach every node.
var ErrDisconnected = errors.New("gbst: graph is not connected from the source")

// Tree is a ranked BFS spanning tree with the GBST property.
type Tree struct {
	Src int
	// Parent[v] is v's tree parent, or -1 for the source.
	Parent []int32
	// Level[v] is the BFS distance from the source.
	Level []int32
	// Rank[v] is the (possibly promoted) rank of v; >= 1.
	Rank []int32
	// FastChild[v] is the unique child with Rank equal to Rank[v], or -1.
	// A node with FastChild[v] != -1 is a "fast node" and the edge to that
	// child is a "fast edge".
	FastChild []int32
	// MaxRank is the maximum rank in the tree (rmax in the paper).
	MaxRank int
	// Depth is the maximum level (the eccentricity of the source).
	Depth int
}

// Build constructs a GBST of g rooted at src. Each node's tree parent is
// its graph.BFSParents parent: the smallest-id neighbour one level up. It
// returns ErrDisconnected if any node is unreachable from src.
func Build(g *graph.Graph, src int) (*Tree, error) {
	n := g.N()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("gbst: source %d out of range [0,%d)", src, n)
	}
	level, parent := g.BFSParents(src)
	depth := 0
	for v, d := range level {
		if d == -1 {
			return nil, fmt.Errorf("%w: node %d unreachable", ErrDisconnected, v)
		}
		if int(d) > depth {
			depth = int(d)
		}
	}

	// Children lists and per-level buckets.
	children := make([][]int32, n)
	for v := 0; v < n; v++ {
		if p := parent[v]; p != -1 {
			children[p] = append(children[p], int32(v))
		}
	}
	byLevel := make([][]int32, depth+1)
	for v := 0; v < n; v++ {
		byLevel[level[v]] = append(byLevel[level[v]], int32(v))
	}

	rank := make([]int32, n)
	fastChild := make([]int32, n)
	for i := range fastChild {
		fastChild[i] = -1
	}

	// Bottom-up ranking with per-(level, rank) fast-edge deduplication.
	for l := depth; l >= 0; l-- {
		for _, v := range byLevel[l] {
			maxR, count := int32(0), 0
			var fc int32 = -1
			for _, c := range children[v] {
				switch {
				case rank[c] > maxR:
					maxR, count, fc = rank[c], 1, c
				case rank[c] == maxR:
					count++
				}
			}
			switch {
			case len(children[v]) == 0:
				rank[v] = 1
			case count == 1:
				rank[v] = maxR
				fastChild[v] = fc
			default:
				rank[v] = maxR + 1
			}
		}
		// Promotion pass: at most one fast node per rank on this level.
		seen := make(map[int32]bool)
		for _, v := range byLevel[l] {
			if fastChild[v] == -1 {
				continue
			}
			r := rank[v]
			if seen[r] {
				rank[v] = r + 1
				fastChild[v] = -1
			} else {
				seen[r] = true
			}
		}
	}

	maxRank := int32(1)
	for _, r := range rank {
		if r > maxRank {
			maxRank = r
		}
	}
	return &Tree{
		Src:       src,
		Parent:    parent,
		Level:     level,
		Rank:      rank,
		FastChild: fastChild,
		MaxRank:   int(maxRank),
		Depth:     depth,
	}, nil
}

// IsFast reports whether v is a fast node (has a same-rank child).
func (t *Tree) IsFast(v int) bool { return t.FastChild[v] != -1 }

// N returns the number of nodes in the tree.
func (t *Tree) N() int { return len(t.Parent) }

// PathToSource returns the tree path from v up to the source, inclusive.
func (t *Tree) PathToSource(v int) []int32 {
	path := []int32{int32(v)}
	for t.Parent[v] != -1 {
		v = int(t.Parent[v])
		path = append(path, int32(v))
	}
	return path
}

// FastStretches decomposes the root-to-v tree path into its maximal runs of
// fast edges, returning the length (edge count) of each run in root-to-leaf
// order. The total number of runs is at most MaxRank.
func (t *Tree) FastStretches(v int) []int {
	// Walk from the root down to v.
	up := t.PathToSource(v)
	var stretches []int
	run := 0
	for i := len(up) - 1; i > 0; i-- {
		parent, child := up[i], up[i-1]
		if t.FastChild[parent] == child {
			run++
		} else if run > 0 {
			stretches = append(stretches, run)
			run = 0
		}
	}
	if run > 0 {
		stretches = append(stretches, run)
	}
	return stretches
}

// Verify checks all structural invariants of the tree against g:
// BFS-tree validity, the rank rules (allowing promotions), fast-child
// consistency, and the GBST property. It returns nil if all hold.
func (t *Tree) Verify(g *graph.Graph) error {
	n := g.N()
	if len(t.Parent) != n || len(t.Level) != n || len(t.Rank) != n || len(t.FastChild) != n {
		return fmt.Errorf("gbst: tree arrays sized for %d nodes, graph has %d", len(t.Parent), n)
	}
	dist := g.BFS(t.Src)
	for v := 0; v < n; v++ {
		if t.Level[v] != dist[v] {
			return fmt.Errorf("gbst: node %d level %d != BFS distance %d", v, t.Level[v], dist[v])
		}
		if v == t.Src {
			if t.Parent[v] != -1 {
				return fmt.Errorf("gbst: source has parent %d", t.Parent[v])
			}
			continue
		}
		p := t.Parent[v]
		if p < 0 {
			return fmt.Errorf("gbst: node %d has no parent", v)
		}
		if !g.HasEdge(int(p), v) {
			return fmt.Errorf("gbst: tree edge (%d,%d) not in graph", p, v)
		}
		if t.Level[p] != t.Level[v]-1 {
			return fmt.Errorf("gbst: edge (%d,%d) does not step one level", p, v)
		}
		if t.Rank[v] < 1 {
			return fmt.Errorf("gbst: node %d has rank %d < 1", v, t.Rank[v])
		}
		if t.Rank[p] < t.Rank[v] {
			return fmt.Errorf("gbst: child %d rank %d exceeds parent %d rank %d", v, t.Rank[v], p, t.Rank[p])
		}
	}
	// Fast-child consistency: FastChild is a real same-rank child, and no
	// node has two same-rank children.
	sameRankChildren := make(map[int32]int32, n) // parent -> count packed
	for v := 0; v < n; v++ {
		p := t.Parent[v]
		if p != -1 && t.Rank[p] == t.Rank[v] {
			sameRankChildren[p]++
			if t.FastChild[p] != int32(v) {
				return fmt.Errorf("gbst: node %d has same-rank child %d not marked fast", p, v)
			}
		}
	}
	for p, cnt := range sameRankChildren {
		if cnt > 1 {
			return fmt.Errorf("gbst: node %d has %d same-rank children", p, cnt)
		}
	}
	for v := 0; v < n; v++ {
		fc := t.FastChild[v]
		if fc == -1 {
			continue
		}
		if t.Parent[fc] != int32(v) {
			return fmt.Errorf("gbst: fast child %d of %d is not its tree child", fc, v)
		}
		if t.Rank[fc] != t.Rank[v] {
			return fmt.Errorf("gbst: fast edge (%d,%d) joins ranks %d and %d", v, fc, t.Rank[v], t.Rank[fc])
		}
	}
	// GBST property: at most one fast node per (level, rank).
	type lr struct{ level, rank int32 }
	seen := make(map[lr]int32)
	for v := 0; v < n; v++ {
		if t.FastChild[v] == -1 {
			continue
		}
		key := lr{level: t.Level[v], rank: t.Rank[v]}
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("gbst: GBST violation: fast nodes %d and %d share level %d rank %d",
				prev, v, key.level, key.rank)
		}
		seen[key] = int32(v)
	}
	return nil
}
