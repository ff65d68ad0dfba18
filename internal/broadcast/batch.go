// Trial-batched execution of the broadcast schedules: up to
// radio.MaxBatchWidth independent Monte-Carlo trials of one (topology,
// config) pair run in lockstep, one synchronized round at a time, over a
// radio.BatchNetwork on the dense engine. Each trial ("lane") keeps its
// own rng stream, informed state and counters, so its execution is
// draw-for-draw identical to the scalar runner — the batch twins are pure
// throughput optimisations, and the package tests compare them against
// their scalar twins result by result. Schedule.RunBatch hands them
// between 2 and radio.MaxBatchWidth untraced streams on a topology that
// resolves to the dense engine; every other call runs the scalar twin
// once per stream.
//
// Lanes finish at different times; a finished lane leaves the active mask
// and from then on consumes no randomness and contributes no channel
// work, exactly as if its trial had returned.
package broadcast

import (
	"math/bits"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// batchLane is one trial's state in a single-message batch run.
type batchLane struct {
	informed     *bitset.Set
	informedList []int32
	rnd          *rng.Stream
	rounds       int // executed rounds at completion (or the cap)
	sched        scheduleFunc
}

// batchRunner is the lockstep counterpart of singleRunner: W lanes of
// informed-set state stepping one shared BatchNetwork.
type batchRunner struct {
	net   *radio.BatchNetwork[struct{}]
	lanes []batchLane
	views []laneView // one marker view per lane, built once
	tx    *bitset.Block
	rx    *bitset.Block
}

// view returns lane l's marker view without allocating.
func (b *batchRunner) view(l int) *laneView {
	if b.views == nil {
		b.views = make([]laneView, len(b.lanes))
		for i := range b.views {
			b.views[i] = laneView{r: b, l: i}
		}
	}
	return &b.views[l]
}

// laneView adapts one lane of a batchRunner to the marker interface the
// schedules drive — the batch twin of singleRunner's own implementation.
// Methods use a pointer receiver and runners keep one laneView per lane
// (see batchRunner.views), so handing a lane to a schedule converts an
// existing pointer to the interface without allocating in the round loop.
type laneView struct {
	r *batchRunner
	l int
}

func (v *laneView) Mark(x int32) { v.r.tx.Set(v.l, int(x)) }

func (v *laneView) Informed(x int32) bool { return v.r.lanes[v.l].informed.Test(int(x)) }

func (v *laneView) DecayStep(p float64) {
	lane := &v.r.lanes[v.l]
	geometricVisit(lane.rnd, len(lane.informedList), p, func(pos int) {
		v.r.tx.Set(v.l, int(lane.informedList[pos]))
	})
}

// foldLane folds lane l's round receivers into its informed set in
// ascending id order — the order the scalar runner observes them — then
// clears the lane's rx and tx over their nonzero windows only. This is
// the scalar runner's loop body lane-wise, and the fold order is part of
// the draw contract, so every batch runner goes through this one
// definition.
func (b *batchRunner) foldLane(l int) {
	lane := &b.lanes[l]
	w := b.rx.Width()
	lo, hi := b.rx.LaneNonzeroRange(l)
	words := b.rx.Words()
	for wi := lo; wi < hi; wi++ {
		for word := words[wi*w+l]; word != 0; word &= word - 1 {
			v := wi*64 + bits.TrailingZeros64(word)
			if !lane.informed.Test(v) {
				lane.informed.Set(v)
				lane.informedList = append(lane.informedList, int32(v))
			}
		}
	}
	b.rx.ResetLaneWindow(l, lo, hi)
	txLo, txHi := b.tx.LaneNonzeroRange(l)
	b.tx.ResetLaneWindow(l, txLo, txHi)
}

// runSingleBatch executes one single-message trial of plan per stream in
// rnds, in lockstep: per round every unfinished lane's schedule marks its
// broadcasters into the lane's tx column, one StepBatch resolves all
// lanes' receptions, and each lane folds its receivers into its informed
// set in ascending id order (the scalar fold order). A lane whose
// informed set completes leaves the active mask with its round count
// recorded; the loop ends when every lane finished or the plan's round
// cap elapsed.
func runSingleBatch(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams, plan singlePlan) ([]Outcome, error) {
	if err := validateTopology(top); err != nil {
		return nil, err
	}
	maxRounds, factory, err := plan(top, cfg, p)
	if err != nil {
		return nil, err
	}
	w := len(rnds)
	g := top.G
	n := g.N()
	net, err := sigPool.GetBatch(g, cfg, rnds)
	if err != nil {
		return nil, err
	}
	b := &batchRunner{
		net:   net,
		lanes: make([]batchLane, w),
		tx:    bitset.NewBlock(n, radio.MaxBatchWidth),
		rx:    bitset.NewBlock(n, radio.MaxBatchWidth),
	}
	act := uint64(0)
	for l := range b.lanes {
		informed := bitset.New(n)
		informed.Set(top.Source)
		b.lanes[l] = batchLane{
			informed:     informed,
			informedList: []int32{int32(top.Source)},
			rnd:          rnds[l],
			sched:        factory(),
		}
		if n > 1 {
			act |= 1 << uint(l)
		}
	}

	for round := 0; round < maxRounds && act != 0; round++ {
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			b.lanes[l].sched(b.view(l), round)
		}
		net.StepBatch(b.tx, nil, b.rx, act, nil)
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			b.foldLane(l)
			if len(b.lanes[l].informedList) == n {
				act &^= 1 << uint(l)
				b.lanes[l].rounds = round + 1
			}
		}
	}
	out := make([]Outcome, w)
	for l := range out {
		lane := &b.lanes[l]
		if act&(1<<uint(l)) != 0 {
			lane.rounds = maxRounds // capped, like the scalar loop exit
		}
		out[l] = Outcome{
			Rounds:  lane.rounds,
			Success: len(lane.informedList) == n,
			Done:    len(lane.informedList),
			Channel: net.LaneStats(l),
		}
	}
	sigPool.PutBatch(net)
	return out, nil
}

// multiLane is one trial's lockstep hooks in a multi-message batch run:
// begin marks the lane's broadcasters and payloads for the round, deliver
// consumes the lane's receptions, and after does post-round bookkeeping
// and reports whether the lane's trial is complete.
type multiLane[P any] struct {
	begin   func(round int)
	deliver func(d radio.Delivery[P])
	after   func(round int) bool
}

// runMultiBatch drives one multi-message lane per stream in lockstep over
// one pooled BatchNetwork until every lane reports completion or
// maxRounds elapse, then assembles per-lane results via finish(lane,
// executedRounds, laneChannelStats). The per-lane round accounting
// matches the scalar loops: a lane completing in the body of round r
// records r+1 executed rounds, a lane alive at the cap records maxRounds.
func runMultiBatch[P any](pool *radio.Pool[P], g *graph.Graph, cfg radio.Config, rnds []*rng.Stream, maxRounds int, tx *bitset.Block, payloads [][]P, lanes []multiLane[P], finish func(lane, rounds int, ch radio.Stats) Outcome) ([]Outcome, error) {
	w := len(rnds)
	net, err := pool.GetBatch(g, cfg, rnds)
	if err != nil {
		return nil, err
	}
	act := ^uint64(0) >> (64 - uint(w))
	rounds := make([]int, w)
	deliver := func(l int, d radio.Delivery[P]) { lanes[l].deliver(d) }
	for round := 0; round < maxRounds && act != 0; round++ {
		for m := act; m != 0; m &= m - 1 {
			lanes[bits.TrailingZeros64(m)].begin(round)
		}
		net.StepBatch(tx, payloads, nil, act, deliver)
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if lanes[l].after(round) {
				act &^= 1 << uint(l)
				rounds[l] = round + 1
			}
		}
	}
	out := make([]Outcome, w)
	for l := range out {
		if act&(1<<uint(l)) != 0 {
			rounds[l] = maxRounds
		}
		out[l] = finish(l, rounds[l], net.LaneStats(l))
	}
	pool.PutBatch(net)
	return out, nil
}
