package radio

import (
	"fmt"
	"reflect"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// laneDelivery is one batch delivery tagged with its lane.
type laneDelivery struct {
	lane int
	d    Delivery[int32]
}

// batchExecution is everything observable about one lane of a batch run.
type batchExecution struct {
	deliveries []Delivery[int32]
	stats      Stats
	rx         *bitset.Set
	nextDraw   uint64 // stream position witness: the draw after the run
}

// batchStreams returns w lane streams rng.NewFrom(seed, l).
func batchStreams(seed uint64, w int) []*rng.Stream {
	rnds := make([]*rng.Stream, w)
	for l := range rnds {
		rnds[l] = rng.NewFrom(seed, uint64(l))
	}
	return rnds
}

// executeScalarLane runs lane l's trial on a scalar dense Network: the
// reference executions batch runs must reproduce draw for draw. schedule
// is consulted as schedule(lane, round, v); the lane's stream is
// rng.NewFrom(seed, lane). roundsFor(l) bounds the lane's rounds (lanes
// deactivate at different times in the batch run).
func executeScalarLane(t testing.TB, g *graph.Graph, cfg Config, seed uint64, lane, rounds int, schedule func(lane, round, v int) bool) batchExecution {
	t.Helper()
	cfg.Engine = Dense
	r := rng.NewFrom(seed, uint64(lane))
	net, err := New[int32](g, cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	tx := bitset.New(n)
	payload := make([]int32, n)
	ex := batchExecution{rx: bitset.New(n)}
	for round := 0; round < rounds; round++ {
		tx.Reset()
		for v := 0; v < n; v++ {
			if schedule(lane, round, v) {
				tx.Set(v)
			}
			payload[v] = int32(round*n + v)
		}
		net.StepSet(tx, payload, ex.rx, func(d Delivery[int32]) {
			ex.deliveries = append(ex.deliveries, d)
		})
	}
	ex.stats = net.Stats()
	ex.nextDraw = r.Uint64()
	return ex
}

// executeBatchLanes runs w lanes in one BatchNetwork and splits the
// observations per lane. roundsFor(l) gives each lane's round count; lanes
// beyond their count are removed from the active mask, so the run also
// exercises early-finisher handling.
func executeBatchLanes(t testing.TB, g *graph.Graph, cfg Config, seed uint64, w int, roundsFor func(lane int) int, schedule func(lane, round, v int) bool) []batchExecution {
	t.Helper()
	cfg.Engine = Dense
	rnds := batchStreams(seed, w)
	net, err := NewBatch[int32](g, cfg, rnds)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	maxRounds := 0
	for l := 0; l < w; l++ {
		if r := roundsFor(l); r > maxRounds {
			maxRounds = r
		}
	}
	tx := bitset.NewBlock(n, MaxBatchWidth)
	rx := bitset.NewBlock(n, MaxBatchWidth)
	payloads := make([][]int32, w)
	for l := range payloads {
		payloads[l] = make([]int32, n)
	}
	var deliveries []laneDelivery
	for round := 0; round < maxRounds; round++ {
		act := uint64(0)
		tx.Reset()
		for l := 0; l < w; l++ {
			if round >= roundsFor(l) {
				continue
			}
			act |= 1 << uint(l)
			for v := 0; v < n; v++ {
				if schedule(l, round, v) {
					tx.Set(l, v)
				}
				payloads[l][v] = int32(round*n + v)
			}
		}
		txBefore := append([]uint64(nil), tx.Words()...)
		net.StepBatch(tx, payloads, rx, act, func(lane int, d Delivery[int32]) {
			deliveries = append(deliveries, laneDelivery{lane: lane, d: d})
		})
		for i, word := range tx.Words() {
			if word != txBefore[i] {
				t.Fatalf("round %d: StepBatch mutated the caller's tx block", round)
			}
		}
	}
	for l := w; l < MaxBatchWidth; l++ {
		if lo, hi := rx.LaneNonzeroRange(l); lo != hi {
			t.Fatalf("lane %d, beyond the %d streams, received packets", l, w)
		}
	}
	out := make([]batchExecution, w)
	for l := range out {
		out[l].rx = laneSet(rx, l)
		out[l].stats = net.LaneStats(l)
		out[l].nextDraw = rnds[l].Uint64()
	}
	for _, ld := range deliveries {
		out[ld.lane].deliveries = append(out[ld.lane].deliveries, ld.d)
	}
	return out
}

// requireLaneIdentical fails unless a batch lane reproduced its scalar
// reference exactly: stats, deliveries, accumulated rx set and the rng
// stream position.
func requireLaneIdentical(t *testing.T, name string, want, got batchExecution) {
	t.Helper()
	if want.stats != got.stats {
		t.Fatalf("%s: stats diverged\nwant %+v\ngot  %+v", name, want.stats, got.stats)
	}
	if !reflect.DeepEqual(want.deliveries, got.deliveries) {
		t.Fatalf("%s: deliveries diverged (%d vs %d events)", name, len(want.deliveries), len(got.deliveries))
	}
	for w, word := range want.rx.Words() {
		if got.rx.Words()[w] != word {
			t.Fatalf("%s: rx sets diverged: %v vs %v", name, got.rx, want.rx)
		}
	}
	if want.nextDraw != got.nextDraw {
		t.Fatalf("%s: rng stream positions diverged after the run", name)
	}
}

// laneSet reads lane l of b back as a Set.
func laneSet(b *bitset.Block, l int) *bitset.Set {
	s := bitset.New(b.Len())
	for v := 0; v < b.Len(); v++ {
		if b.Test(l, v) {
			s.Set(v)
		}
	}
	return s
}

// batchSchedule derives a deterministic per-(lane, round, node) schedule
// from a seed, mixing the lane in so lanes genuinely differ.
func batchSchedule(seed uint64, prob float64) func(lane, round, v int) bool {
	return func(lane, round, v int) bool {
		h := seed ^ uint64(lane)*0x9e3779b97f4a7c15 ^ uint64(round)*0xd1342543de82ef95 ^ uint64(v)*0xbf58476d1ce4e5b9
		h ^= h >> 29
		h *= 0x94d049bb133111eb
		h ^= h >> 32
		return float64(h>>11)*(1.0/(1<<53)) < prob
	}
}

// TestBatchMatchesScalarAcrossTopologies is the batch differential
// contract: every lane of a StepBatch run over assorted topologies, fault
// environments, stream counts and schedules must be bit-identical —
// deliveries, stats, rx bits and stream positions — to a scalar StepSet
// run of the same trial, including lanes that deactivate early. Stream
// counts 9 and 13 leave the kernel's upper eight lanes partly live.
func TestBatchMatchesScalarAcrossTopologies(t *testing.T) {
	wct := graph.NewWCT(graph.DefaultWCTParams(120), rng.New(11))
	tops := []graph.Topology{
		graph.Path(40),
		graph.Grid(7, 9),
		graph.GNP(90, 0.05, rng.New(5)),
		graph.GNP(90, 0.4, rng.New(6)),
		graph.Complete(70),
		graph.Star(50),
		{G: wct.G, Source: wct.Source, Name: "wct(n=120)"},
	}
	for _, top := range tops {
		for _, cfg := range diffConfigs(top.G.N()) {
			for _, w := range []int{1, 3, 4, 8, 9, 13, 16} {
				const rounds = 30
				// Stagger lane lifetimes so the active mask shrinks.
				roundsFor := func(lane int) int { return rounds - 3*lane }
				sched := batchSchedule(77, 0.25)
				got := executeBatchLanes(t, top.G, cfg, 42, w, roundsFor, sched)
				for l := 0; l < w; l++ {
					name := fmt.Sprintf("%s/%s/w=%d/lane=%d", top.Name, cfg.Fault, w, l)
					want := executeScalarLane(t, top.G, cfg, 42, l, roundsFor(l), sched)
					requireLaneIdentical(t, name, want, got[l])
				}
			}
		}
	}
}

// Random graphs, configurations and widths: the same per-lane equivalence
// over a seed sweep.
func TestBatchMatchesScalarRandomSweep(t *testing.T) {
	models := []FaultModel{Faultless, SenderFaults, ReceiverFaults}
	for seed := uint64(0); seed < 20; seed++ {
		r := rng.New(seed)
		n := 2 + r.Intn(100)
		top := graph.GNP(n, r.Float64(), r.Split())
		cfg := Config{Fault: models[r.Intn(len(models))], P: r.Float64() * 0.95, Draw: DrawContract(r.Intn(2))}
		w := 1 + r.Intn(10)
		prob := r.Float64()
		rounds := 5 + r.Intn(25)
		roundsFor := func(lane int) int { return 1 + (rounds+lane)%rounds }
		sched := batchSchedule(seed+500, prob)
		got := executeBatchLanes(t, top.G, cfg, seed+1000, w, roundsFor, sched)
		for l := 0; l < w; l++ {
			name := fmt.Sprintf("seed %d (%s, %v, draw %v, w=%d, lane=%d)", seed, top.Name, cfg.Fault, cfg.Draw, w, l)
			want := executeScalarLane(t, top.G, cfg, seed+1000, l, roundsFor(l), sched)
			requireLaneIdentical(t, name, want, got[l])
		}
	}
}

// An all-inactive StepBatch must be completely inert apart from the round
// counters of lanes named active (none here).
func TestBatchInactiveLanesInert(t *testing.T) {
	top := graph.Complete(32)
	rnds := []*rng.Stream{rng.New(1), rng.New(2)}
	net := MustNewBatch[int32](top.G, Config{Fault: ReceiverFaults, P: 0.4, Engine: Dense}, rnds)
	tx := bitset.NewBlock(32, MaxBatchWidth)
	tx.Set(0, 3)
	tx.Set(1, 7)
	before0, before1 := *rnds[0], *rnds[1]
	net.StepBatch(tx, nil, nil, 0, nil)
	if got := net.LaneStats(0); got != (Stats{}) {
		t.Fatalf("inactive lane 0 accumulated stats: %+v", got)
	}
	if *rnds[0] != before0 || *rnds[1] != before1 {
		t.Fatal("inactive lanes consumed randomness")
	}
	// Lane 1 active alone: lane 0 still inert.
	net.StepBatch(tx, nil, nil, 1<<1, nil)
	if got := net.LaneStats(0); got != (Stats{}) {
		t.Fatalf("lane 0 accumulated stats while inactive: %+v", got)
	}
	if s := net.LaneStats(1); s.Rounds != 1 || s.Broadcasts != 1 {
		t.Fatalf("lane 1 stats = %+v, want one round, one broadcast", s)
	}
	if *rnds[0] != before0 {
		t.Fatal("lane 0 consumed randomness while inactive")
	}
}

func TestNewBatchRejectsBadWidth(t *testing.T) {
	top := graph.Path(4)
	dense := Config{Fault: Faultless, Engine: Dense}
	if _, err := NewBatch[int32](top.G, dense, nil); err == nil {
		t.Fatal("NewBatch with no streams succeeded")
	}
	rnds := make([]*rng.Stream, MaxBatchWidth+1)
	for i := range rnds {
		rnds[i] = rng.New(uint64(i))
	}
	if _, err := NewBatch[int32](top.G, dense, rnds); err == nil {
		t.Fatalf("NewBatch with %d streams succeeded", len(rnds))
	}
	if _, err := NewBatch[int32](top.G, Config{Fault: FaultModel(9), Engine: Dense}, rnds[:2]); err == nil {
		t.Fatal("NewBatch with invalid config succeeded")
	}
	if _, err := NewBatch[int32](top.G, dense, rnds[:MaxBatchWidth]); err != nil {
		t.Fatalf("NewBatch with %d streams: %v", MaxBatchWidth, err)
	}
}

// TestNewBatchRejectsNonDenseEngines: lockstep runs on the dense engine
// only, so NewBatch refuses a graph that resolves to the sparse or
// implicit engine, whether by Auto or by a forced engine, and accepts
// one that resolves to dense, fallback included.
func TestNewBatchRejectsNonDenseEngines(t *testing.T) {
	rnds := batchStreams(1, 2)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		eng  Engine
		ok   bool
	}{
		{"auto-sparse", graph.Path(32).G, Auto, false},
		{"forced-sparse", graph.Complete(70).G, Sparse, false},
		{"auto-implicit", graph.ImplicitComplete(128).G, Auto, false},
		{"auto-implicit-csr", graph.Complete(70).G, Auto, false},
		{"forced-implicit", graph.Complete(70).G, Implicit, false},
		{"auto-dense", graph.GNP(128, 0.5, rng.New(3)).G, Auto, true},
		{"implicit-falls-back-to-dense", graph.GNP(128, 0.5, rng.New(3)).G, Implicit, true},
	} {
		cfg := Config{Fault: ReceiverFaults, P: 0.3, Engine: tc.eng}
		if _, err := NewBatch[int32](tc.g, cfg, rnds); (err == nil) != tc.ok {
			t.Errorf("%s: NewBatch on a graph resolving to %v: err = %v", tc.name, cfg.ResolveEngine(tc.g), err)
		}
	}
}

// TestStepBatchRequiresKernelWidthBlocks: tx and rx blocks are always
// MaxBatchWidth lanes wide, whatever the stream count.
func TestStepBatchRequiresKernelWidthBlocks(t *testing.T) {
	g := graph.Complete(70).G
	net := MustNewBatch[int32](g, Config{Fault: Faultless, Engine: Dense}, batchStreams(1, 4))
	full := bitset.NewBlock(g.N(), MaxBatchWidth)
	narrow := bitset.NewBlock(g.N(), 4)
	for name, step := range map[string]func(){
		"narrow tx": func() { net.StepBatch(narrow, nil, nil, 0b1111, nil) },
		"narrow rx": func() { net.StepBatch(full, nil, narrow, 0b1111, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: StepBatch accepted a %d-lane block", name, narrow.Width())
				}
			}()
			step()
		}()
	}
	net.StepBatch(full, nil, bitset.NewBlock(g.N(), MaxBatchWidth), 0b1111, nil) // kernel-width blocks are accepted
}
