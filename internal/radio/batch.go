package radio

import (
	"fmt"
	"math/bits"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// MaxBatchWidth is the lane count of the lockstep kernel: every lockstep
// bitset.Block is MaxBatchWidth lanes wide, and a BatchNetwork runs
// between 1 and MaxBatchWidth trials in it.
const MaxBatchWidth = 16

// BatchNetwork runs up to MaxBatchWidth independent trials ("lanes") of
// the same (graph, config) pair in lockstep on the dense engine, one
// synchronized round at a time. Lane l owns its own rng.Stream, Stats and
// fault scratch, and its execution — every random draw, delivery,
// collision and statistic — is bit-identical to running a scalar Network
// over the same graph, config and stream (the batch differential and fuzz
// tests enforce this).
//
// What batching buys is per-round amortisation of the listener sweep: the
// dense engine visits each listener's adjacency row once per round and
// resolves every lane's broadcast word against each row word it loads
// (the transposed bitset.Block layout makes those words adjacent), so the
// dominant row-traversal cost is paid once per round instead of once per
// trial. The sparse and implicit engines have no shared traversal to
// amortise, so NewBatch rejects graphs that resolve to them.
//
// The kernel always resolves MaxBatchWidth lanes. A network over k
// streams leaves lanes k..MaxBatchWidth-1 inactive from round 0, and lanes
// may finish at different times: StepBatch takes an active-lane mask, and
// inactive lanes consume no randomness, collect no statistics and deliver
// nothing, exactly as if their trial had already returned.
//
// A BatchNetwork supports no trace callback: tracing is a scalar,
// demonstrative-run concern. It is not safe for concurrent use.
type BatchNetwork[P any] struct {
	g    *graph.Graph
	cfg  Config
	w    int    // stream count: lanes 0..w-1 carry trials
	full uint64 // mask of lanes 0..w-1

	rnds  []*rng.Stream
	stats []Stats // one per stream

	// Precomputed fault samplers, shared across lanes (the config is).
	faultCoin  rng.Bernoulli
	faultCoins []rng.Bernoulli

	// Per-stream state: lanes 0..w-1 only.
	//
	// draws[l] is lane l's draw-contract state; every lane fault decision
	// routes through it, exactly as the scalar engine's draw field. Lanes
	// never share countdown state — each consumes its own stream.
	draws []drawState

	// senderNoise[l][v]: lane l's per-round sender-fault flags. Allocated
	// only under SenderFaults, the only model that writes it.
	senderNoise [][]bool

	// noisySites[l]: lane l's sender-fault sites this round, recorded when
	// the skip contract is active so the end-of-round clear is O(faults)
	// per lane — the batch twin of the scalar noisySites.
	noisySites [][]int32

	// Dense-engine state, shared across lanes (the adjacency is).
	adjBits      *bitset.Matrix
	adjWords     []uint64
	adjStride    int
	rowLo, rowHi []int32

	// Per-listener lane scratch: hit/hitBase[l] are the scalar engine's
	// hit/hitBase locals, one slot per lane, valid for lanes whose
	// unique-sender mask bit survives the word scan.
	hit     []uint64
	hitBase []int32
	// anyTx[wi] is the OR of every live lane's tx word wi this round: a
	// listener whose word is zero here is listening in every live lane,
	// skipping the per-lane transmit test on the (typical) node words with
	// no broadcasters at all.
	anyTx []uint64
}

// NewBatch creates a lockstep batch network over g with one lane per
// stream in rnds. len(rnds) must be in [1, MaxBatchWidth], and g must
// resolve to the dense engine under cfg. Lane l draws exclusively from
// rnds[l].
func NewBatch[P any](g *graph.Graph, cfg Config, rnds []*rng.Stream) (*BatchNetwork[P], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PerNodeP != nil && len(cfg.PerNodeP) != g.N() {
		return nil, fmt.Errorf("radio: PerNodeP has length %d, graph has %d nodes", len(cfg.PerNodeP), g.N())
	}
	w := len(rnds)
	if w < 1 || w > MaxBatchWidth {
		return nil, fmt.Errorf("radio: batch of %d streams outside [1, %d]", w, MaxBatchWidth)
	}
	if e := resolveEngine(g, cfg.Engine); e != Dense {
		return nil, fmt.Errorf("radio: lockstep batches run on the dense engine, the graph resolves to %v", e)
	}
	b := &BatchNetwork[P]{
		g:     g,
		cfg:   cfg,
		w:     w,
		full:  1<<uint(w) - 1,
		rnds:  append([]*rng.Stream(nil), rnds...),
		stats: make([]Stats, w),
		draws: make([]drawState, w),
	}
	for l := range b.draws {
		b.draws[l] = makeDrawState(cfg, g)
	}
	if cfg.Fault == SenderFaults {
		b.senderNoise = make([][]bool, w)
		for l := range b.senderNoise {
			b.senderNoise[l] = make([]bool, g.N())
		}
		if b.draws[0].bulk() {
			b.noisySites = make([][]int32, w)
			for l := range b.noisySites {
				b.noisySites[l] = make([]int32, 0, 16)
			}
		}
	}
	if cfg.Fault != Faultless {
		if cfg.PerNodeP != nil {
			b.faultCoins = make([]rng.Bernoulli, g.N())
			for v := range b.faultCoins {
				b.faultCoins[v] = rng.NewBernoulli(cfg.PerNodeP[v])
			}
		} else {
			b.faultCoin = rng.NewBernoulli(cfg.P)
		}
	}
	b.adjBits = g.AdjacencyBits()
	b.adjWords = b.adjBits.Words()
	b.adjStride = b.adjBits.Stride()
	b.rowLo, b.rowHi = b.adjBits.RowRanges()
	b.hit = make([]uint64, MaxBatchWidth)
	b.hitBase = make([]int32, MaxBatchWidth)
	b.anyTx = make([]uint64, b.adjStride)
	return b, nil
}

// MustNewBatch is NewBatch but panics on error, for configurations known
// valid.
func MustNewBatch[P any](g *graph.Graph, cfg Config, rnds []*rng.Stream) *BatchNetwork[P] {
	b, err := NewBatch[P](g, cfg, rnds)
	if err != nil {
		panic(err)
	}
	return b
}

// Graph returns the underlying graph.
func (b *BatchNetwork[P]) Graph() *graph.Graph { return b.g }

// Config returns the noise configuration.
func (b *BatchNetwork[P]) Config() Config { return b.cfg }

// Width returns the stream count, the number of lanes that carry trials.
func (b *BatchNetwork[P]) Width() int { return b.w }

// LaneStats returns a copy of lane l's accumulated statistics.
func (b *BatchNetwork[P]) LaneStats(l int) Stats { return b.stats[l] }

// ResetLaneDraw restores lane l's draw-contract state to its
// just-constructed value, as if the lane had a fresh network. Batch
// runners whose scalar counterpart builds several networks per trial (one
// per sub-broadcast, e.g. sequential routing's k Decay calls) must call
// this at each sub-broadcast boundary: the draw contract's canonical
// sequence restarts with every scalar network, and stateful contracts
// (DrawV3's burst process) would otherwise leak state across the boundary
// and diverge from the scalar universe.
func (b *BatchNetwork[P]) ResetLaneDraw(l int) { b.draws[l].reset() }

// faultFor returns the fault sampler for node v, as in the scalar engine.
func (b *BatchNetwork[P]) faultFor(v int32) rng.Bernoulli {
	if b.faultCoins != nil {
		return b.faultCoins[v]
	}
	return b.faultCoin
}

// markBroadcaster performs lane l's per-broadcaster bookkeeping:
// accounting and the canonical sender-fault decision, exactly as the
// scalar engine's markBroadcaster does for its single trial. Under the
// skip and burst contracts the per-site countdowns consume the lane
// stream exactly as the scalar engine's bulk walks do, so lane executions
// stay bit-identical to scalar without a batched bulk path.
func (b *BatchNetwork[P]) markBroadcaster(l, v int) {
	b.stats[l].Broadcasts++
	if b.cfg.Fault == SenderFaults {
		noisy := b.draws[l].site(int32(v), b.faultFor(int32(v)), b.rnds[l])
		b.senderNoise[l][v] = noisy
		if noisy {
			b.stats[l].SenderFaults++
			if b.draws[l].bulk() {
				b.noisySites[l] = append(b.noisySites[l], int32(v))
			}
		}
	}
}

// resolveUnique handles lane l's listener u whose unique transmitting
// neighbour is from: the canonical receiver-fault draw, delivery
// accounting, the rx lane bit and the delivery callback — the lane-wise
// twin of the scalar engine's resolveUnique.
func (b *BatchNetwork[P]) resolveUnique(l int, u, from int32, payloads [][]P, rx *bitset.Block, deliver func(lane int, d Delivery[P])) {
	if b.cfg.Fault == SenderFaults && b.senderNoise[l][from] {
		return // content destroyed at the sender
	}
	if b.cfg.Fault == ReceiverFaults && b.draws[l].site(u, b.faultFor(u), b.rnds[l]) {
		b.stats[l].ReceiverFaults++
		return
	}
	b.stats[l].Deliveries++
	if rx != nil {
		rx.Set(l, int(u))
	}
	if deliver != nil {
		deliver(l, Delivery[P]{To: int(u), From: int(from), Payload: payloads[l][from]})
	}
}

// StepBatch executes one synchronized round across every active lane.
//
// tx holds each lane's broadcast set (lane l of the Block is lane l's
// broadcasters); it must be MaxBatchWidth lanes wide, and the engine
// reads it and never mutates it. payloads[l][v] is the packet lane l's
// node v transmits if selected, for each of the Width lanes; payloads may
// be nil when deliver is nil (the packet contents are then never read).
// Receptions are reported through rx (MaxBatchWidth lanes wide; lane bit
// (l, u) set when lane l's node u receives a packet; bits are only ever
// added) and/or deliver, invoked per successful reception with the
// receiving lane.
//
// active selects the participating lanes (bit l = lane l). Inactive lanes
// are completely inert: no draws, no statistics, no deliveries — exactly
// as if their trial had already finished. Bits at or above Width are
// ignored.
//
// Per lane, random draws happen in the scalar engine's canonical order —
// sender-fault flags for that lane's broadcasters in ascending node id,
// then receiver-fault flags for that lane's eligible listeners in
// ascending node id — and lane draws come from lane streams only, so each
// lane's execution is bit-identical to a scalar Network consuming the same
// stream. Deliveries are resolved in ascending receiver id and, within one
// receiver, ascending lane. As with StepSet, a network whose deliver
// callback panicked must be discarded.
func (b *BatchNetwork[P]) StepBatch(tx *bitset.Block, payloads [][]P, rx *bitset.Block, active uint64, deliver func(lane int, d Delivery[P])) {
	nn := b.g.N()
	if tx.Len() != nn || tx.Width() != MaxBatchWidth {
		panic(fmt.Sprintf("radio: StepBatch tx %dx%d, want %dx%d", tx.Len(), tx.Width(), nn, MaxBatchWidth))
	}
	if rx != nil && (rx.Len() != nn || rx.Width() != MaxBatchWidth) {
		panic(fmt.Sprintf("radio: StepBatch rx %dx%d, want %dx%d", rx.Len(), rx.Width(), nn, MaxBatchWidth))
	}
	if deliver != nil {
		if len(payloads) != b.w {
			panic(fmt.Sprintf("radio: StepBatch with deliver needs %d payload lanes, got %d", b.w, len(payloads)))
		}
		for l, p := range payloads {
			if len(p) != nn {
				panic(fmt.Sprintf("radio: StepBatch payload lane %d has length %d, want %d", l, len(p), nn))
			}
		}
	}
	act := active & b.full
	for m := act; m != 0; m &= m - 1 {
		b.stats[bits.TrailingZeros64(m)].Rounds++
	}
	if act == 0 {
		return
	}
	b.stepBatchDense(tx, payloads, rx, act, deliver)
	// Clear the sender-fault flags set this round — off each active lane's
	// recorded fault sites under the skip and burst contracts (O(faults)
	// per lane), otherwise per lane off that lane's tx words — and close
	// every lane's draw-contract round boundary: the batch twin of the
	// scalar finishRound.
	if b.cfg.Fault == SenderFaults {
		if b.noisySites != nil {
			for m := act; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				noise := b.senderNoise[l]
				for _, v := range b.noisySites[l] {
					noise[v] = false
				}
				b.noisySites[l] = b.noisySites[l][:0]
			}
		} else {
			words := tx.Words()
			for m := act; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				noise := b.senderNoise[l]
				lo, hi := tx.LaneNonzeroRange(l)
				for wi := lo; wi < hi; wi++ {
					for w := words[wi*MaxBatchWidth+l]; w != 0; w &= w - 1 {
						noise[wi*64+bits.TrailingZeros64(w)] = false
					}
				}
			}
		}
	}
	if b.cfg.Fault != Faultless {
		for m := act; m != 0; m &= m - 1 {
			b.draws[bits.TrailingZeros64(m)].endRound()
		}
	}
}

// stepBatchDense is the batched word-parallel engine: it marks every
// active lane's broadcasters, then makes one pass over the listeners
// (denseListeners16), each adjacency row word loaded once and resolved
// against all lanes' broadcast words (adjacent in the transposed tx
// block). Per lane the outcome is exactly the scalar dense engine's —
// unique transmitting neighbour, collision, or silence over the tx/row
// window overlap — but the row traversal, the window clamp and the
// per-listener bookkeeping are paid once per round, not once per lane,
// and the per-lane state collapses to two cross-lane bitmasks (any
// transmitting neighbour seen; at least two seen) built word by word.
func (b *BatchNetwork[P]) stepBatchDense(tx *bitset.Block, payloads [][]P, rx *bitset.Block, act uint64, deliver func(lane int, d Delivery[P])) {
	words := tx.Words()

	// Mark transmissions and draw sender faults lane by lane in ascending
	// node id (each lane's canonical order), collecting the union of the
	// lanes' nonzero tx windows and the per-word OR across lanes. Lanes
	// with empty broadcast sets are silent: no draws, no listener work —
	// as in the scalar engine.
	anyTx := b.anyTx
	for wi := range anyTx {
		anyTx[wi] = 0
	}
	unionLo, unionHi := b.adjStride, 0
	live := uint64(0)
	for m := act; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		lo, hi := tx.LaneNonzeroRange(l)
		if lo == hi {
			continue
		}
		live |= 1 << uint(l)
		if lo < unionLo {
			unionLo = lo
		}
		if hi > unionHi {
			unionHi = hi
		}
		for wi := lo; wi < hi; wi++ {
			w := words[wi*MaxBatchWidth+l]
			anyTx[wi] |= w
			for ; w != 0; w &= w - 1 {
				b.markBroadcaster(l, wi*64+bits.TrailingZeros64(w))
			}
		}
	}
	if live == 0 {
		return
	}
	b.denseListeners16(tx, payloads, rx, live, unionLo, unionHi, deliver)
}
