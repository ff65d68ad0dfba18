package radio

import (
	"sync"

	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// poolKey identifies networks that are interchangeable after a Reset: the
// same graph, fault environment, engine selection, draw-contract version
// with its parameters, and kind (a scalar checkout must never be handed
// batch scratch, and vice versa, so the kind is part of the key exactly
// like the graph is). A batch network serves any stream count after
// Reset, so its lane count is not. Configs with per-node fault
// probabilities are not pooled (the slice is not comparable and the case
// is rare).
type poolKey struct {
	g      *graph.Graph
	fault  FaultModel
	p      float64
	engine Engine
	draw   DrawContract // networks under different contracts never mix
	burst  BurstParams  // v3 parameters (normalised; zero otherwise)
	jam    JamParams    // v4 parameters (normalised; zero otherwise)
	batch  bool         // BatchNetwork rather than Network
}

// makePoolKey builds the key for a (graph, config, kind) triple. The
// contract parameters go in normalised — defaults resolved, non-selected
// contracts zeroed — so configurations that run identically share a
// freelist.
func makePoolKey(g *graph.Graph, cfg Config, batch bool) poolKey {
	burst, jam := cfg.drawParams()
	return poolKey{
		g:      g,
		fault:  cfg.Fault,
		p:      cfg.P,
		engine: cfg.Engine,
		draw:   cfg.Draw,
		burst:  burst,
		jam:    jam,
		batch:  batch,
	}
}

// Pool reuses Networks (and their batch counterparts) across Monte-Carlo
// trials. Trials over the same (graph, config) pair are the hot path of
// the experiment harness: without reuse every trial reallocates the
// adjacency scratch and fault buffers (Θ(n) per trial — Θ(W·n) for a
// batch) just to throw them away a few thousand rounds later. Get returns
// a Reset cached network when one is available and constructs one
// otherwise; Put stores a finished network for the next trial. GetBatch
// and PutBatch are the same for BatchNetworks, which any stream count
// can reuse.
//
// Pooling is purely a performance optimisation: Reset restores the exact
// just-constructed state, so pooled and fresh networks produce
// bit-identical executions (enforced by tests). The zero value is ready
// for use, and the pool is safe for concurrent use — row-parallel sweeps
// acquire networks for several distinct graphs at once, which is why the
// freelist is keyed rather than a single sync.Pool.
type Pool[P any] struct {
	mu        sync.Mutex
	free      map[poolKey][]*Network[P]      // scalar keys only
	freeBatch map[poolKey][]*BatchNetwork[P] // batch keys only
	// order lists keys with non-empty freelists, least recently stored
	// first — the eviction order when the total cap is reached.
	order []poolKey
	size  int
}

// Per-key and total caps bound the memory pinned by idle networks (and the
// graphs they keep alive). A Put beyond the per-key cap is dropped (the
// key already has more spares than concurrent trials can use); a Put
// beyond the total cap evicts the oldest stored network instead, so a
// long multi-experiment run keeps reusing networks for its *current*
// graphs rather than pinning dead ones and silently disabling pooling.
// Scalar and batch networks share the caps: both count towards size.
const (
	poolKeyCap   = 16
	poolTotalCap = 256
)

// Get returns a network over g with the given configuration and
// randomness, reusing a pooled one when possible. It is equivalent to
// New[P](g, cfg, rnd) in every observable way; in particular the key's
// kind guarantees a scalar checkout can never receive a pooled batch
// network's scratch.
func (p *Pool[P]) Get(g *graph.Graph, cfg Config, rnd *rng.Stream) (*Network[P], error) {
	if cfg.PerNodeP == nil {
		key := makePoolKey(g, cfg, false)
		p.mu.Lock()
		if list := p.free[key]; len(list) > 0 {
			n := list[len(list)-1]
			p.free[key] = list[:len(list)-1]
			p.size--
			if len(list) == 1 {
				p.dropKey(key)
			}
			p.mu.Unlock()
			n.Reset(rnd)
			return n, nil
		}
		p.mu.Unlock()
	}
	return New[P](g, cfg, rnd)
}

// GetBatch returns a lockstep batch network over g with one lane per
// stream in rnds, reusing a pooled one, whatever stream count it last
// ran, when possible. It is equivalent to NewBatch[P](g, cfg, rnds) in
// every observable way.
func (p *Pool[P]) GetBatch(g *graph.Graph, cfg Config, rnds []*rng.Stream) (*BatchNetwork[P], error) {
	if err := checkBatchWidth(len(rnds)); err != nil {
		return nil, err
	}
	if cfg.PerNodeP == nil {
		key := makePoolKey(g, cfg, true)
		p.mu.Lock()
		if list := p.freeBatch[key]; len(list) > 0 {
			b := list[len(list)-1]
			p.freeBatch[key] = list[:len(list)-1]
			p.size--
			if len(list) == 1 {
				p.dropKey(key)
			}
			p.mu.Unlock()
			b.Reset(rnds)
			return b, nil
		}
		p.mu.Unlock()
	}
	return NewBatch[P](g, cfg, rnds)
}

// dropKey removes key from the eviction order and its freelist map; the
// caller holds p.mu and has emptied (or is emptying) the key's list.
func (p *Pool[P]) dropKey(key poolKey) {
	if key.batch {
		delete(p.freeBatch, key)
	} else {
		delete(p.free, key)
	}
	for i, k := range p.order {
		if k == key {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}

// evictOldest discards one network from the least recently stored key.
// The caller holds p.mu and guarantees the pool is non-empty.
func (p *Pool[P]) evictOldest() {
	key := p.order[0]
	var remaining int
	if key.batch {
		list := p.freeBatch[key]
		p.freeBatch[key] = list[:len(list)-1]
		remaining = len(list) - 1
	} else {
		list := p.free[key]
		p.free[key] = list[:len(list)-1]
		remaining = len(list) - 1
	}
	p.size--
	if remaining == 0 {
		p.dropKey(key)
	}
}

// Put stores a finished network for reuse. The caller must not use n after
// Put. Networks with per-node fault probabilities, or arriving when their
// key is already at the per-key cap, are dropped; at the total cap the
// oldest stored network is evicted to make room.
func (p *Pool[P]) Put(n *Network[P]) {
	if n == nil || n.cfg.PerNodeP != nil {
		return
	}
	key := makePoolKey(n.g, n.cfg, false)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free[key]) >= poolKeyCap {
		return
	}
	if p.size >= poolTotalCap {
		p.evictOldest()
	}
	if p.free == nil {
		p.free = make(map[poolKey][]*Network[P])
	}
	if len(p.free[key]) == 0 {
		p.order = append(p.order, key)
	}
	p.free[key] = append(p.free[key], n)
	p.size++
}

// PutBatch stores a finished batch network for reuse. The caller must not
// use b after PutBatch.
func (p *Pool[P]) PutBatch(b *BatchNetwork[P]) {
	if b == nil || b.cfg.PerNodeP != nil {
		return
	}
	key := makePoolKey(b.g, b.cfg, true)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.freeBatch[key]) >= poolKeyCap {
		return
	}
	if p.size >= poolTotalCap {
		p.evictOldest()
	}
	if p.freeBatch == nil {
		p.freeBatch = make(map[poolKey][]*BatchNetwork[P])
	}
	if len(p.freeBatch[key]) == 0 {
		p.order = append(p.order, key)
	}
	p.freeBatch[key] = append(p.freeBatch[key], b)
	p.size++
}
