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
// execution on the sparse and dense engines and require bit-identical
// deliveries, Stats, rx bitsets and trace callbacks. This is the
// determinism contract every reproduced table stands on.

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
// engine, recording everything observable. schedule is consulted once per
// (round, node) pair in ascending order, so a deterministic schedule
// function yields identical inputs for every engine. The harness also
// checks, every round, that the rx bitset exactly matches the delivered
// receivers and that the engine left the caller's tx set untouched.
func executeEngine(t testing.TB, g *graph.Graph, cfg Config, eng Engine, netSeed uint64, rounds int, schedule func(round, v int) bool) execution {
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
	payload := make([]int32, n)
	tx := bitset.New(n)
	rx := bitset.New(n)
	rxWant := bitset.New(n)
	for round := 0; round < rounds; round++ {
		tx.Reset()
		for v := 0; v < n; v++ {
			if schedule(round, v) {
				tx.Set(v)
			}
			payload[v] = int32(round*n + v)
		}
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
	ex.stats = net.Stats()
	return ex
}

// runEngine is executeEngine with a Bernoulli(txProb) schedule drawn from
// driverSeed — the schedule is a pure function of (driverSeed, txProb), so
// every engine sees identical inputs.
func runEngine(t *testing.T, g *graph.Graph, cfg Config, eng Engine, netSeed, driverSeed uint64, rounds int, txProb float64) execution {
	t.Helper()
	driver := rng.New(driverSeed)
	return executeEngine(t, g, cfg, eng, netSeed, rounds, func(round, v int) bool {
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
func diffConfigs() []Config {
	return []Config{
		{Fault: Faultless},
		{Fault: SenderFaults, P: 0.3},
		{Fault: ReceiverFaults, P: 0.3},
		// The v2 geometric-skip contract, over both models: dense faults
		// (skips mostly 0–2 sites) and the sparse-fault regime (skips
		// spanning words and whole rounds, the case the contract exists for).
		{Fault: SenderFaults, P: 0.3, Draw: DrawV2},
		{Fault: ReceiverFaults, P: 0.3, Draw: DrawV2},
		{Fault: SenderFaults, P: 0.02, Draw: DrawV2},
		// The v3 Gilbert–Elliott contract: default burst shape and a custom
		// shape stressing short bursts with a hot bad coin. P stays below
		// BadP so the stationary marginal is reachable.
		{Fault: SenderFaults, P: 0.1, Draw: DrawV3},
		{Fault: ReceiverFaults, P: 0.1, Draw: DrawV3, Burst: BurstParams{Len: 3, BadP: 0.8}},
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
		builderComplete(70),
		graph.Star(50),
		{G: wct.G, Source: wct.Source, Name: "wct(n=160)"},
		// Each sender's cluster members lie scattered over the graph's 32
		// words, so the sparse engine's touched windows span many words.
		{G: wideWCT.G, Source: wideWCT.Source, Name: "wct(n=2048)"},
	}
	for _, top := range tops {
		for _, cfg := range diffConfigs() {
			for _, txProb := range []float64{0.05, 0.3, 0.8} {
				name := fmt.Sprintf("%s/%s/draw %v txProb=%v", top.Name, cfg.Fault, cfg.Draw, txProb)
				ref := runEngine(t, top.G, cfg, Sparse, 42, 77, 60, txProb)
				requireIdentical(t, name, ref, runEngine(t, top.G, cfg, Dense, 42, 77, 60, txProb))
			}
		}
	}

	// Dense rows of 65 words: on G(4100, 1/4) a listener hears about 1025
	// neighbours. At txProb 0.05 about 50 of them broadcast, so the dense
	// scan exits early on a collision. The ends schedule broadcasts one
	// node of word 0 and one of word 64, so each listener scans its whole
	// row: a lone sender's hit word is the first or the last, and a
	// listener hearing both collides only at the last.
	gnp := graph.GNP(4100, 0.25, rng.New(13))
	ends := func(round, v int) bool { return v == round || v == gnp.G.N()-1-round }
	for _, cfg := range diffConfigs() {
		name := fmt.Sprintf("%s/%s/draw %v", gnp.Name, cfg.Fault, cfg.Draw)
		ref := runEngine(t, gnp.G, cfg, Sparse, 42, 77, 4, 0.05)
		requireIdentical(t, name+" txProb=0.05", ref, runEngine(t, gnp.G, cfg, Dense, 42, 77, 4, 0.05))
		ref = executeEngine(t, gnp.G, cfg, Sparse, 42, 4, ends)
		requireIdentical(t, name+" ends", ref, executeEngine(t, gnp.G, cfg, Dense, 42, 4, ends))
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
	for _, cfg := range diffConfigs() {
		name := fmt.Sprintf("%s/%s/draw %v word edges", path.Name, cfg.Fault, cfg.Draw)
		ref := executeEngine(t, path.G, cfg, Sparse, 42, 60, edges)
		requireIdentical(t, name, ref, executeEngine(t, path.G, cfg, Dense, 42, 60, edges))
	}
}

// Random graphs, random configurations, random schedules: a seed sweep of
// the same differential property across the engines.
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
		name := fmt.Sprintf("seed %d (%s, %v, draw %v, txProb=%.2f)", seed, top.Name, cfg.Fault, cfg.Draw, txProb)
		ref := runEngine(t, top.G, cfg, Sparse, seed+1000, seed+2000, 40, txProb)
		requireIdentical(t, name, ref, runEngine(t, top.G, cfg, Dense, seed+1000, seed+2000, 40, txProb))
	}
}

// The delivery callback order is part of the contract: ascending receiver
// id within a round, for both engines.
func TestDeliveryOrderAscendingWithinRound(t *testing.T) {
	for _, eng := range []Engine{Sparse, Dense} {
		top := builderComplete(40)
		net := MustNew[int32](top.G, Config{Fault: Faultless, Engine: eng}, rng.New(1))
		if net.Engine() != eng {
			t.Fatalf("engine resolved to %v, want %v", net.Engine(), eng)
		}
		tx := bitset.New(40)
		tx.Set(17)
		last := -1
		net.StepSet(tx, make([]int32, 40), nil, func(d Delivery[int32]) {
			if d.To <= last {
				t.Fatalf("%v: delivery to %d after %d (not ascending)", eng, d.To, last)
			}
			last = d.To
		})
		if last == -1 {
			t.Fatalf("%v: no deliveries", eng)
		}
	}
}

// StepSet's batched-reception path (rx only, no deliver closure) must be
// interchangeable with the closure path: an rx-only run and a
// deliver-only run of the same rounds end with identical stats and
// accumulated receiver sets.
func TestStepSetBatchedReceptionMatchesCallback(t *testing.T) {
	for _, eng := range []Engine{Sparse, Dense} {
		for _, cfg := range diffConfigs() {
			cfg.Engine = eng
			top := graph.GNP(60, 0.2, rng.New(9))
			driver := rng.New(33)
			netA, err := New[int32](top.G, cfg, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			netB, err := New[int32](top.G, cfg, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			n := top.G.N()
			payload := make([]int32, n)
			tx := bitset.New(n)
			rxA := bitset.New(n) // accumulated via rx bitset, no closure
			rxB := bitset.New(n) // accumulated via deliver closure
			for round := 0; round < 50; round++ {
				randomTx(tx, driver, 0.2)
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
