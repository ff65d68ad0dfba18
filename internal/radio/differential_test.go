package radio

import (
	"fmt"
	"reflect"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// The differential harness: run the same (graph, config, seed, schedule)
// execution on the sparse and dense engines, through both the Step bool
// adapter and the set-native StepSet entry point, and require
// bit-identical deliveries, Stats, rx bitsets and trace callbacks. This is
// the determinism contract every reproduced table stands on.

// stepMode selects the entry point the harness drives.
type stepMode int

const (
	viaStep    stepMode = iota // Step([]bool, ...) adapter
	viaStepSet                 // StepSet(tx, payload, rx, deliver)
)

func (m stepMode) String() string {
	if m == viaStepSet {
		return "stepset"
	}
	return "step"
}

// traceRecord is one TraceFunc invocation, deep-copied.
type traceRecord struct {
	round int
	tx    []int32
	rx    []int32
}

// execution is everything observable about a run.
type execution struct {
	deliveries []Delivery[int32]
	stats      Stats
	traces     []traceRecord
}

// executeEngine runs rounds broadcast rounds on g under cfg with the given
// engine and entry point, recording everything observable. schedule is
// consulted once per (round, node) pair in ascending order, so a
// deterministic schedule function yields identical inputs for every
// (engine, mode) combination. In StepSet mode the harness additionally
// checks, every round, that the rx bitset exactly matches the delivered
// receivers and that the engine left the caller's tx set untouched.
func executeEngine(t testing.TB, g *graph.Graph, cfg Config, eng Engine, mode stepMode, netSeed uint64, rounds int, schedule func(round, v int) bool) execution {
	t.Helper()
	cfg.Engine = eng
	net, err := New[int32](g, cfg, rng.New(netSeed))
	if err != nil {
		t.Fatal(err)
	}
	if net.Engine() != eng {
		t.Fatalf("engine resolved to %v, want %v", net.Engine(), eng)
	}
	var ex execution
	net.SetTrace(func(round int, broadcasters, receivers []int32) {
		ex.traces = append(ex.traces, traceRecord{
			round: round,
			tx:    append([]int32(nil), broadcasters...),
			rx:    append([]int32(nil), receivers...),
		})
	})
	n := g.N()
	bc := make([]bool, n)
	payload := make([]int32, n)
	tx := bitset.New(n)
	rx := bitset.New(n)
	rxWant := bitset.New(n)
	for round := 0; round < rounds; round++ {
		for v := 0; v < n; v++ {
			bc[v] = schedule(round, v)
			payload[v] = int32(round*n + v)
		}
		switch mode {
		case viaStep:
			net.Step(bc, payload, func(d Delivery[int32]) {
				ex.deliveries = append(ex.deliveries, d)
			})
		case viaStepSet:
			tx.FromBools(bc)
			txBefore := tx.Clone()
			rx.Reset()
			rxWant.Reset()
			net.StepSet(tx, payload, rx, func(d Delivery[int32]) {
				ex.deliveries = append(ex.deliveries, d)
				rxWant.Set(d.To)
			})
			for w, word := range tx.Words() {
				if word != txBefore.Words()[w] {
					t.Fatalf("round %d: StepSet mutated the caller's tx set", round)
				}
			}
			for w, word := range rx.Words() {
				if word != rxWant.Words()[w] {
					t.Fatalf("round %d: rx bitset %v != delivered receivers %v", round, rx, rxWant)
				}
			}
		}
	}
	ex.stats = net.Stats()
	return ex
}

// engineModes are the four (engine, entry point) combinations every
// differential property is checked across.
var engineModes = []struct {
	eng  Engine
	mode stepMode
}{
	{Sparse, viaStep},
	{Sparse, viaStepSet},
	{Dense, viaStep},
	{Dense, viaStepSet},
}

// runEngine is executeEngine with a Bernoulli(txProb) schedule drawn from
// driverSeed — the schedule is a pure function of (driverSeed, txProb), so
// all engine/mode combinations see identical inputs.
func runEngine(t *testing.T, g *graph.Graph, cfg Config, eng Engine, mode stepMode, netSeed, driverSeed uint64, rounds int, txProb float64) execution {
	t.Helper()
	driver := rng.New(driverSeed)
	return executeEngine(t, g, cfg, eng, mode, netSeed, rounds, func(round, v int) bool {
		return driver.Bool(txProb)
	})
}

// requireIdentical fails unless got matches want in stats, deliveries and
// traces; name labels the diverging combination.
func requireIdentical(t *testing.T, name string, want, got execution) {
	t.Helper()
	if want.stats != got.stats {
		t.Fatalf("%s: stats diverged\nwant %+v\ngot  %+v", name, want.stats, got.stats)
	}
	if !reflect.DeepEqual(want.deliveries, got.deliveries) {
		t.Fatalf("%s: deliveries diverged (%d vs %d events)", name, len(want.deliveries), len(got.deliveries))
	}
	if !reflect.DeepEqual(want.traces, got.traces) {
		t.Fatalf("%s: traces diverged", name)
	}
}

// diffConfigs are the fault environments the differential suite sweeps.
func diffConfigs(n int) []Config {
	perNode := make([]float64, n)
	for v := range perNode {
		perNode[v] = float64(v%10) / 10 * 0.9
	}
	return []Config{
		{Fault: Faultless},
		{Fault: SenderFaults, P: 0.3},
		{Fault: ReceiverFaults, P: 0.3},
		{Fault: SenderFaults, P: 0.5, PerNodeP: perNode},
		{Fault: ReceiverFaults, P: 0.5, PerNodeP: perNode},
		// The v2 geometric-skip contract, over both models: dense faults
		// (skips mostly 0–2 sites), the sparse-fault regime (skips spanning
		// words and whole rounds, the case the contract exists for), and the
		// PerNodeP degenerate case that falls back to per-site draws.
		{Fault: SenderFaults, P: 0.3, Draw: DrawV2},
		{Fault: ReceiverFaults, P: 0.3, Draw: DrawV2},
		{Fault: SenderFaults, P: 0.02, Draw: DrawV2},
		{Fault: ReceiverFaults, P: 0.5, PerNodeP: perNode, Draw: DrawV2},
		// The v3 Gilbert–Elliott contract: default burst shape, a custom
		// shape stressing short bursts with a hot bad coin, and the PerNodeP
		// degenerate case that falls back to per-site draws. P stays below
		// BadP so the stationary marginal is reachable.
		{Fault: SenderFaults, P: 0.1, Draw: DrawV3},
		{Fault: ReceiverFaults, P: 0.1, Draw: DrawV3, Burst: BurstParams{Len: 3, BadP: 0.8}},
		{Fault: SenderFaults, P: 0.5, PerNodeP: perNode, Draw: DrawV3},
		// The v4 region-jamming contract: id-window and graph-ball shapes.
		// Jams fire on top of independent v1 draws, so both the prelude
		// (jam coin + center) and the per-site fallthrough get exercised.
		{Fault: SenderFaults, P: 0.3, Draw: DrawV4, Jam: JamParams{Q: 0.3, Radius: 4}},
		{Fault: ReceiverFaults, P: 0.3, Draw: DrawV4, Jam: JamParams{Q: 0.3, Radius: 2, Ball: true}},
	}
}

func TestDifferentialEnginesAcrossTopologies(t *testing.T) {
	wct := graph.NewWCT(graph.DefaultWCTParams(160), rng.New(11))
	wideWCT := graph.NewWCT(graph.DefaultWCTParams(2048), rng.New(12))
	tops := []graph.Topology{
		graph.Path(40),
		graph.Grid(7, 9),
		graph.GNP(90, 0.05, rng.New(5)),
		graph.GNP(90, 0.4, rng.New(6)),
		graph.Complete(70),
		graph.Star(50),
		{G: wct.G, Source: wct.Source, Name: "wct(n=160)"},
		// Each sender's cluster members lie scattered over the graph's 32
		// words, so the sparse engine's touched windows span many words.
		{G: wideWCT.G, Source: wideWCT.Source, Name: "wct(n=2048)"},
	}
	for _, top := range tops {
		for _, cfg := range diffConfigs(top.G.N()) {
			for _, txProb := range []float64{0.05, 0.3, 0.8} {
				ref := runEngine(t, top.G, cfg, engineModes[0].eng, engineModes[0].mode, 42, 77, 60, txProb)
				for _, em := range engineModes[1:] {
					name := fmt.Sprintf("%s/%s/draw %v/%v/%v txProb=%v", top.Name, cfg.Fault, cfg.Draw, em.eng, em.mode, txProb)
					got := runEngine(t, top.G, cfg, em.eng, em.mode, 42, 77, 60, txProb)
					requireIdentical(t, name, ref, got)
				}
			}
		}
	}

	// A touched window with empty interior words and members on word
	// edges: on Path(5000), broadcasters 63 and 64 sit on either side of
	// the first word boundary (each touching the other and one more
	// listener) and n−2 lies 77 words further on. Every third round drops
	// n−2, so the window also shrinks back between rounds.
	path := graph.Path(5000)
	n := path.G.N()
	edges := func(round, v int) bool {
		return v == 63 || v == 64 || (v == n-2 && round%3 != 2)
	}
	for _, cfg := range diffConfigs(n) {
		ref := executeEngine(t, path.G, cfg, engineModes[0].eng, engineModes[0].mode, 42, 60, edges)
		for _, em := range engineModes[1:] {
			name := fmt.Sprintf("%s/%s/draw %v/%v/%v word edges", path.Name, cfg.Fault, cfg.Draw, em.eng, em.mode)
			got := executeEngine(t, path.G, cfg, em.eng, em.mode, 42, 60, edges)
			requireIdentical(t, name, ref, got)
		}
	}
}

// Random graphs, random configurations, random schedules: a seed sweep of
// the same differential property across all engine/mode combinations.
func TestDifferentialEnginesRandomSweep(t *testing.T) {
	models := []FaultModel{Faultless, SenderFaults, ReceiverFaults}
	for seed := uint64(0); seed < 25; seed++ {
		r := rng.New(seed)
		n := 2 + r.Intn(120)
		top := graph.GNP(n, r.Float64(), r.Split())
		cfg := Config{Fault: models[r.Intn(len(models))], P: r.Float64() * 0.95, Draw: DrawContract(r.Intn(4))}
		if cfg.Draw == DrawV3 {
			// Keep P below the default BadP=0.5 with marginal-reachability
			// headroom (g2b <= 1 needs P <= 0.4 at the default Len=8).
			cfg.P *= 0.4
		}
		txProb := r.Float64()
		ref := runEngine(t, top.G, cfg, engineModes[0].eng, engineModes[0].mode, seed+1000, seed+2000, 40, txProb)
		for _, em := range engineModes[1:] {
			name := fmt.Sprintf("seed %d (%s, %v, draw %v, %v/%v, txProb=%.2f)", seed, top.Name, cfg.Fault, cfg.Draw, em.eng, em.mode, txProb)
			got := runEngine(t, top.G, cfg, em.eng, em.mode, seed+1000, seed+2000, 40, txProb)
			requireIdentical(t, name, ref, got)
		}
	}
}

// The delivery callback order is part of the contract: ascending receiver
// id within a round, for both engines and both entry points.
func TestDeliveryOrderAscendingWithinRound(t *testing.T) {
	for _, em := range engineModes {
		top := graph.Complete(40)
		net := MustNew[int32](top.G, Config{Fault: Faultless, Engine: em.eng}, rng.New(1))
		bc := make([]bool, 40)
		payload := make([]int32, 40)
		bc[17] = true
		last := -1
		record := func(d Delivery[int32]) {
			if d.To <= last {
				t.Fatalf("%v/%v: delivery to %d after %d (not ascending)", em.eng, em.mode, d.To, last)
			}
			last = d.To
		}
		if em.mode == viaStep {
			net.Step(bc, payload, record)
		} else {
			tx := bitset.New(40)
			tx.FromBools(bc)
			net.StepSet(tx, payload, nil, record)
		}
		if last == -1 {
			t.Fatalf("%v/%v: no deliveries", em.eng, em.mode)
		}
	}
}

// StepSet's batched-reception path (rx only, no deliver closure) must be
// interchangeable with the closure path mid-run: alternating them round by
// round leaves stats and the accumulated receiver set identical to an
// all-closure run.
func TestStepSetBatchedReceptionMatchesCallback(t *testing.T) {
	for _, eng := range []Engine{Sparse, Dense} {
		for _, cfg := range diffConfigs(60) {
			cfg.Engine = eng
			top := graph.GNP(60, 0.2, rng.New(9))
			driverA := rng.New(33)
			driverB := rng.New(33)
			netA, err := New[int32](top.G, cfg, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			netB, err := New[int32](top.G, cfg, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			n := top.G.N()
			bc := make([]bool, n)
			payload := make([]int32, n)
			tx := bitset.New(n)
			rxA := bitset.New(n) // accumulated via rx bitset, no closure
			rxB := bitset.New(n) // accumulated via deliver closure
			for round := 0; round < 50; round++ {
				for v := 0; v < n; v++ {
					bc[v] = driverA.Bool(0.2)
					driverB.Bool(0.2) // keep the drivers aligned
				}
				tx.FromBools(bc)
				netA.StepSet(tx, payload, rxA, nil)
				netB.StepSet(tx, payload, nil, func(d Delivery[int32]) { rxB.Set(d.To) })
			}
			if netA.Stats() != netB.Stats() {
				t.Fatalf("%v/%v: stats diverged between rx-only and deliver-only runs", eng, cfg.Fault)
			}
			for w, word := range rxA.Words() {
				if word != rxB.Words()[w] {
					t.Fatalf("%v/%v: accumulated receiver sets diverged: %v vs %v", eng, cfg.Fault, rxA, rxB)
				}
			}
		}
	}
}
