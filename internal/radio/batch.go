package radio

import (
	"fmt"
	"math/bits"
	"slices"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// MaxBatchWidth is the largest lane count a BatchNetwork supports: lane
// masks are one machine word.
const MaxBatchWidth = 64

// BatchNetwork runs up to MaxBatchWidth independent trials ("lanes") of
// the same (graph, config) pair in lockstep, one synchronized round at a
// time. Lane l owns its own rng.Stream, Stats and fault scratch, and its
// execution — every random draw, delivery, collision and statistic — is
// bit-identical to running a scalar Network over the same graph, config
// and stream (the batch differential and fuzz tests enforce this).
//
// What batching buys is per-round amortisation of the listener sweep: the
// dense engine visits each listener's adjacency row once per round and
// resolves all W lanes' broadcast words against each row word it loads
// (the transposed bitset.Block layout makes those W words adjacent), so
// the dominant row-traversal cost is paid once per round instead of once
// per trial. The sparse and implicit engines execute the lanes
// sequentially within the round (their per-lane cost has no shared
// traversal to amortise: O(Σ deg(broadcaster)) for sparse, O(n)
// closed-form resolution for implicit) — batching is then purely a
// scheduling convenience with identical results.
//
// Lanes may finish at different times: StepBatch takes an active-lane
// mask, and inactive lanes consume no randomness, collect no statistics
// and deliver nothing, exactly as if their trial had already returned.
//
// A BatchNetwork supports no trace callback: tracing is a scalar,
// demonstrative-run concern. It is not safe for concurrent use.
type BatchNetwork[P any] struct {
	g      *graph.Graph
	cfg    Config
	engine Engine // resolved engine: Sparse, Dense or Implicit, never Auto
	w      int
	full   uint64 // mask of all w lanes

	rnds  []*rng.Stream
	stats []Stats

	// Precomputed fault samplers, shared across lanes (the config is).
	faultCoin  rng.Bernoulli
	faultCoins []rng.Bernoulli

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

	// Sparse-engine per-round scratch, reused across lanes within a round
	// (each lane's resolve walk leaves it empty for the next lane).
	heard listenerTally

	// Implicit-engine state: the closed-form counter (shared across lanes
	// within a round — lanes run sequentially) and the scratch Set one
	// lane's broadcast column is unpacked into for the scalar-equivalent
	// round.
	counter graph.TxCounter
	laneTx  *bitset.Set

	// Dense-engine per-listener lane scratch: hit/hitBase[l] are the
	// scalar engine's hit/hitBase locals, one slot per lane, valid for
	// lanes whose unique-sender mask bit survives the word scan.
	hit     []uint64
	hitBase []int32
	// anyTx[wi] is the OR of every live lane's tx word wi this round: a
	// listener whose word is zero here is listening in every live lane,
	// skipping the per-lane transmit test on the (typical) node words with
	// no broadcasters at all.
	anyTx []uint64
}

// NewBatch creates a lockstep batch network over g with one lane per
// stream in rnds. len(rnds) must be in [1, MaxBatchWidth]. Lane l draws
// exclusively from rnds[l].
func NewBatch[P any](g *graph.Graph, cfg Config, rnds []*rng.Stream) (*BatchNetwork[P], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PerNodeP != nil && len(cfg.PerNodeP) != g.N() {
		return nil, fmt.Errorf("radio: PerNodeP has length %d, graph has %d nodes", len(cfg.PerNodeP), g.N())
	}
	w := len(rnds)
	if w < 1 || w > MaxBatchWidth {
		return nil, fmt.Errorf("radio: batch width %d outside [1, %d]", w, MaxBatchWidth)
	}
	engine := resolveEngine(g, cfg.Engine)
	b := &BatchNetwork[P]{
		g:      g,
		cfg:    cfg,
		engine: engine,
		w:      w,
		full:   ^uint64(0) >> (64 - uint(w)),
		rnds:   slices.Clone(rnds),
		stats:  make([]Stats, w),
	}
	b.draws = make([]drawState, w)
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
	switch engine {
	case Dense:
		b.adjBits = g.AdjacencyBits()
		b.adjWords = b.adjBits.Words()
		b.adjStride = b.adjBits.Stride()
		b.rowLo, b.rowHi = b.adjBits.RowRanges()
		b.hit = make([]uint64, w)
		b.hitBase = make([]int32, w)
		b.anyTx = make([]uint64, b.adjStride)
	case Implicit:
		b.counter = g.NeighborModel().NewTxCounter()
		b.laneTx = bitset.New(g.N())
	default:
		b.heard = newListenerTally(g.N())
	}
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

// Reset returns the batch network to its just-constructed state over the
// same graph, configuration, engine and width, with rnds as the lanes'
// randomness streams — the batch counterpart of Network.Reset, so pooled
// batch networks behave exactly like fresh ones. len(rnds) must equal
// Width.
func (b *BatchNetwork[P]) Reset(rnds []*rng.Stream) {
	if len(rnds) != b.w {
		panic(fmt.Sprintf("radio: BatchNetwork.Reset with %d streams, width %d", len(rnds), b.w))
	}
	copy(b.rnds, rnds)
	for l := range b.stats {
		b.stats[l] = Stats{}
	}
	for _, noise := range b.senderNoise {
		for v := range noise {
			noise[v] = false
		}
	}
	b.heard.clear()
	for l := range b.draws {
		b.draws[l].reset()
	}
	for l := range b.noisySites {
		b.noisySites[l] = b.noisySites[l][:0]
	}
}

// Graph returns the underlying graph.
func (b *BatchNetwork[P]) Graph() *graph.Graph { return b.g }

// Config returns the noise configuration.
func (b *BatchNetwork[P]) Config() Config { return b.cfg }

// Engine returns the resolved execution engine (Sparse, Dense or
// Implicit).
func (b *BatchNetwork[P]) Engine() Engine { return b.engine }

// Width returns the lane count.
func (b *BatchNetwork[P]) Width() int { return b.w }

// LaneStats returns a copy of lane l's accumulated statistics.
func (b *BatchNetwork[P]) LaneStats(l int) Stats { return b.stats[l] }

// ResetLaneDraw restores lane l's draw-contract state to its
// just-constructed value, as if the lane had checked out a fresh network.
// Batch runners whose scalar counterpart performs several pool checkouts
// per trial (one per sub-broadcast, e.g. sequential routing's k Decay
// calls) must call this at each sub-broadcast boundary: the draw
// contract's canonical sequence restarts with every scalar checkout, and
// stateful contracts (DrawV3's burst process) would otherwise leak state
// across the boundary and diverge from the scalar universe.
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
// broadcasters); the engine reads it and never mutates it. payloads[l][v]
// is the packet lane l's node v transmits if selected; payloads may be
// nil when deliver is nil (the packet contents are then never read).
// Receptions are reported through rx (lane bit (l, u) set when lane l's
// node u receives a packet; bits are only ever added) and/or deliver,
// invoked per successful reception with the receiving lane.
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
// receiver, ascending lane.
func (b *BatchNetwork[P]) StepBatch(tx *bitset.Block, payloads [][]P, rx *bitset.Block, active uint64, deliver func(lane int, d Delivery[P])) {
	nn := b.g.N()
	if tx.Len() != nn || tx.Width() != b.w {
		panic(fmt.Sprintf("radio: StepBatch tx %dx%d, want %dx%d", tx.Len(), tx.Width(), nn, b.w))
	}
	if rx != nil && (rx.Len() != nn || rx.Width() != b.w) {
		panic(fmt.Sprintf("radio: StepBatch rx %dx%d, want %dx%d", rx.Len(), rx.Width(), nn, b.w))
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
	switch b.engine {
	case Dense:
		b.stepBatchDense(tx, payloads, rx, act, deliver)
	case Implicit:
		b.stepBatchImplicit(tx, payloads, rx, act, deliver)
	default:
		b.stepBatchSparse(tx, payloads, rx, act, deliver)
	}
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
					for w := words[wi*b.w+l]; w != 0; w &= w - 1 {
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

// stepBatchSparse executes the round lane by lane on the CSR engine: each
// lane runs the scalar sparse round verbatim (mark broadcasters, walk
// neighbour lists, resolve touched listeners in ascending id), reusing the
// shared listener tally between lanes. Lane order is ascending, which is
// observable only through the deliver callback (lane streams are
// independent).
func (b *BatchNetwork[P]) stepBatchSparse(tx *bitset.Block, payloads [][]P, rx *bitset.Block, act uint64, deliver func(lane int, d Delivery[P])) {
	words := tx.Words()
	for m := act; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		lo, hi := tx.LaneNonzeroRange(l)
		for wi := lo; wi < hi; wi++ {
			for w := words[wi*b.w+l]; w != 0; w &= w - 1 {
				v := wi*64 + bits.TrailingZeros64(w)
				b.markBroadcaster(l, v)
				for _, u := range b.g.Neighbors(v) {
					b.heard.hear(u, int32(v))
				}
			}
		}
		h := &b.heard
		hw, counts := h.words, h.count
		for wi, hi := h.lo, h.hi; wi < hi; wi++ {
			w := hw[wi]
			if w == 0 {
				continue
			}
			for ; w != 0; w &= w - 1 {
				u := int32(wi<<6 | bits.TrailingZeros64(w))
				count := counts[u]
				counts[u] = 0
				if tx.Test(l, int(u)) {
					continue // transmitting nodes do not listen
				}
				switch {
				case count > 1:
					b.stats[l].Collisions++
				case count == 1:
					b.resolveUnique(l, u, h.from[u], payloads, rx, deliver)
				}
			}
			hw[wi] = 0
		}
		h.lo, h.hi = len(hw), 0
	}
}

// stepBatchImplicit executes the round lane by lane on the closed-form
// engine: each lane's broadcast column is unpacked into the scratch Set
// and the lane runs the scalar implicit round verbatim (mark
// broadcasters, Begin the counter, resolve every listener in ascending
// id). There is no shared traversal to amortise — per-lane cost is O(n)
// regardless — so, as for sparse, batching here is purely a scheduling
// convenience with identical results. Lane order is ascending, observable
// only through the deliver callback.
func (b *BatchNetwork[P]) stepBatchImplicit(tx *bitset.Block, payloads [][]P, rx *bitset.Block, act uint64, deliver func(lane int, d Delivery[P])) {
	nn := b.g.N()
	for m := act; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		if lo, hi := tx.LaneNonzeroRange(l); lo == hi {
			continue // silent lane: no draws, as in the scalar engine
		}
		tx.LaneToSet(l, b.laneTx)
		txw := b.laneTx.Words()
		txLo, txHi := b.laneTx.NonzeroRange()
		for wi := txLo; wi < txHi; wi++ {
			for w := txw[wi]; w != 0; w &= w - 1 {
				b.markBroadcaster(l, wi*64+bits.TrailingZeros64(w))
			}
		}
		b.counter.Begin(b.laneTx)
		for u := 0; u < nn; u++ {
			if txw[u>>6]&(1<<(uint(u)&63)) != 0 {
				continue // transmitting nodes do not listen
			}
			count, from := b.counter.Count(int32(u))
			switch {
			case count > 1:
				b.stats[l].Collisions++
			case count == 1:
				b.resolveUnique(l, int32(u), from, payloads, rx, deliver)
			}
		}
	}
}

// byteSpread8 distributes bits 0..7 of an 8-lane mask into the bytes of a
// packed per-lane counter word, REVERSED: mask bit l lands in byte 7-l.
// (The multiply places bit l of the mask at position 9·(7-l)+l; after the
// shift and byte mask exactly that survivor remains per lane, and distinct
// lanes never carry into each other.) Adding the spread word into an
// accumulator counts all eight lanes in one instruction sequence instead
// of a mask walk — the batched engine's collision tally.
func byteSpread8(mask uint64) uint64 {
	return (mask * 0x8040201008040201 >> 7) & 0x0101010101010101
}

// flushCollisions8 folds a packed byteSpread8 accumulator into the lane
// statistics (byte 7-l counts lane l) and resets it.
func (b *BatchNetwork[P]) flushCollisions8(acc *uint64) {
	for l := 0; l < b.w; l++ {
		b.stats[l].Collisions += int64(*acc >> (8 * (7 - uint(l))) & 0xff)
	}
	*acc = 0
}

// stepBatchDense is the batched word-parallel engine: one pass over the
// listeners, each adjacency row word loaded once and resolved against all
// live lanes' broadcast words (adjacent in the transposed tx block). Per
// lane the outcome is exactly the scalar dense engine's — unique
// transmitting neighbour, collision, or silence over the tx/row window
// overlap — but the row traversal, the window clamp and the per-listener
// bookkeeping are paid once per round, not once per lane, and the
// per-lane state collapses to two cross-lane bitmasks (any transmitting
// neighbour seen; at least two seen) built word by word.
func (b *BatchNetwork[P]) stepBatchDense(tx *bitset.Block, payloads [][]P, rx *bitset.Block, act uint64, deliver func(lane int, d Delivery[P])) {
	W := b.w
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
			w := words[wi*W+l]
			anyTx[wi] |= w
			for ; w != 0; w &= w - 1 {
				b.markBroadcaster(l, wi*64+bits.TrailingZeros64(w))
			}
		}
	}
	if live == 0 {
		return
	}

	switch W {
	case 4:
		b.denseListeners4(tx, payloads, rx, live, unionLo, unionHi, deliver)
		return
	case 8:
		// The default trial-batch width runs its own listener sweep with
		// the lane loop unrolled — this is the engine's hottest
		// configuration and the one the CI speedup gate measures.
		b.denseListeners8(tx, payloads, rx, live, unionLo, unionHi, deliver)
		return
	case 16:
		b.denseListeners16(tx, payloads, rx, live, unionLo, unionHi, deliver)
		return
	}

	// Resolve receptions in ascending receiver id order; within one
	// receiver, lanes resolve in ascending lane order (their draws are
	// independent, so only the deliver callback can observe this order).
	// Collisions are tallied through a packed byte accumulator when the
	// width permits (W <= 8), flushed before any byte can saturate.
	nn := b.g.N()
	adj, stride := b.adjWords, b.adjStride
	rowLo, rowHi := b.rowLo, b.rowHi
	hit, hitBase := b.hit, b.hitBase
	swar := W <= 8
	var collAcc uint64
	collTicks := 0
	for u, base := 0, 0; u < nn; u, base = u+1, base+stride {
		// Clamp the union tx window to the row window; an all-zero row has
		// lo > hi, which clamps to an empty overlap.
		lo, hi := unionLo, unionHi
		if rl := int(rowLo[u]); rl > lo {
			lo = rl
		}
		if rh := int(rowHi[u]); rh < hi {
			hi = rh
		}
		if lo >= hi {
			continue
		}
		// Live lanes in which u listens (transmitting nodes do not
		// listen). When no lane at all broadcasts from u's node word —
		// the typical case under windowed schedules — the per-lane test
		// is skipped wholesale via the anyTx OR.
		listen := live
		bitU := uint(u) & 63
		if anyTx[u>>6]>>bitU&1 != 0 {
			col := words[(u>>6)*W : (u>>6)*W+W]
			txm := uint64(0)
			for l, w := range col {
				txm |= (w >> bitU & 1) << uint(l)
			}
			listen = live &^ txm
			if listen == 0 {
				continue
			}
		}
		// Build the two cross-lane outcome masks word by word: nz has a
		// lane once any transmitting neighbour appeared, mult once a
		// second did (two in one word, or hits in two words). A lane in
		// nz but not mult has exactly one transmitting neighbour, and its
		// intersection word — recorded when its single hit was seen — is
		// still current, because any later hit would have moved the lane
		// into mult.
		var nz, mult uint64
		for wi := lo; wi < hi; wi++ {
			a := adj[base+wi]
			if a == 0 || anyTx[wi]&a == 0 {
				continue
			}
			cw := words[wi*W : wi*W+W : wi*W+W]
			var nzw uint64
			for l, w := range cw {
				x := a & w
				if x != 0 {
					nzw |= 1 << uint(l)
					if x&(x-1) != 0 {
						mult |= 1 << uint(l)
					} else {
						hit[l] = x
						hitBase[l] = int32(wi * 64)
					}
				}
			}
			mult |= nz & nzw
			nz |= nzw
			if listen&^mult == 0 {
				break // every listening lane's collision is certain
			}
		}
		if coll := mult & listen; coll != 0 {
			if swar {
				collAcc += byteSpread8(coll)
				if collTicks++; collTicks == 255 {
					b.flushCollisions8(&collAcc)
					collTicks = 0
				}
			} else {
				for m := coll; m != 0; m &= m - 1 {
					b.stats[bits.TrailingZeros64(m)].Collisions++
				}
			}
		}
		for m := nz &^ mult & listen; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			b.resolveUnique(l, int32(u), hitBase[l]+int32(bits.TrailingZeros64(hit[l])), payloads, rx, deliver)
		}
	}
	if collAcc != 0 {
		b.flushCollisions8(&collAcc)
	}
}

// denseListeners8 is the width-8 listener sweep: identical outcome logic
// to the generic loop in stepBatchDense, with the per-word lane loop
// unrolled (constant lane indices, no shifts by loop variables, no slice
// iteration) so the eight independent AND/test chains schedule in
// parallel. Separated because W = 8 is the default trial-batch width and
// the configuration the CI speedup gate measures.
func (b *BatchNetwork[P]) denseListeners8(tx *bitset.Block, payloads [][]P, rx *bitset.Block, live uint64, unionLo, unionHi int, deliver func(lane int, d Delivery[P])) {
	words := tx.Words()
	anyTx := b.anyTx
	nn := b.g.N()
	adj, stride := b.adjWords, b.adjStride
	rowLo, rowHi := b.rowLo, b.rowHi
	hit, hitBase := b.hit, b.hitBase
	var collAcc uint64
	collTicks := 0
	for u, base := 0, 0; u < nn; u, base = u+1, base+stride {
		lo, hi := unionLo, unionHi
		if rl := int(rowLo[u]); rl > lo {
			lo = rl
		}
		if rh := int(rowHi[u]); rh < hi {
			hi = rh
		}
		if lo >= hi {
			continue
		}
		listen := live
		bitU := uint(u) & 63
		if anyTx[u>>6]>>bitU&1 != 0 {
			col := (*[8]uint64)(words[(u>>6)*8 : (u>>6)*8+8])
			txm := col[0]>>bitU&1 |
				col[1]>>bitU&1<<1 |
				col[2]>>bitU&1<<2 |
				col[3]>>bitU&1<<3 |
				col[4]>>bitU&1<<4 |
				col[5]>>bitU&1<<5 |
				col[6]>>bitU&1<<6 |
				col[7]>>bitU&1<<7
			listen = live &^ txm
			if listen == 0 {
				continue
			}
		}
		var nz, mult uint64
		for wi := lo; wi < hi; wi++ {
			a := adj[base+wi]
			if anyTx[wi]&a == 0 {
				continue
			}
			cw := (*[8]uint64)(words[wi*8 : wi*8+8])
			wb := int32(wi * 64)
			var nzw uint64
			if x := a & cw[0]; x != 0 {
				nzw |= 1 << 0
				if x&(x-1) != 0 {
					mult |= 1 << 0
				} else {
					hit[0], hitBase[0] = x, wb
				}
			}
			if x := a & cw[1]; x != 0 {
				nzw |= 1 << 1
				if x&(x-1) != 0 {
					mult |= 1 << 1
				} else {
					hit[1], hitBase[1] = x, wb
				}
			}
			if x := a & cw[2]; x != 0 {
				nzw |= 1 << 2
				if x&(x-1) != 0 {
					mult |= 1 << 2
				} else {
					hit[2], hitBase[2] = x, wb
				}
			}
			if x := a & cw[3]; x != 0 {
				nzw |= 1 << 3
				if x&(x-1) != 0 {
					mult |= 1 << 3
				} else {
					hit[3], hitBase[3] = x, wb
				}
			}
			if x := a & cw[4]; x != 0 {
				nzw |= 1 << 4
				if x&(x-1) != 0 {
					mult |= 1 << 4
				} else {
					hit[4], hitBase[4] = x, wb
				}
			}
			if x := a & cw[5]; x != 0 {
				nzw |= 1 << 5
				if x&(x-1) != 0 {
					mult |= 1 << 5
				} else {
					hit[5], hitBase[5] = x, wb
				}
			}
			if x := a & cw[6]; x != 0 {
				nzw |= 1 << 6
				if x&(x-1) != 0 {
					mult |= 1 << 6
				} else {
					hit[6], hitBase[6] = x, wb
				}
			}
			if x := a & cw[7]; x != 0 {
				nzw |= 1 << 7
				if x&(x-1) != 0 {
					mult |= 1 << 7
				} else {
					hit[7], hitBase[7] = x, wb
				}
			}
			mult |= nz & nzw
			nz |= nzw
			if listen&^mult == 0 {
				break
			}
		}
		if coll := mult & listen; coll != 0 {
			collAcc += byteSpread8(coll)
			if collTicks++; collTicks == 255 {
				b.flushCollisions8(&collAcc)
				collTicks = 0
			}
		}
		for m := nz &^ mult & listen; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			b.resolveUnique(l, int32(u), hitBase[l]+int32(bits.TrailingZeros64(hit[l])), payloads, rx, deliver)
		}
	}
	if collAcc != 0 {
		b.flushCollisions8(&collAcc)
	}
}
