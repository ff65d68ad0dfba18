package radio

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// EngineMicrobench measures the per-round engine microbenchmarks the CI
// bench gate tracks: ns/round and allocs/round through StepSet for
// sparse/dense/implicit × faultless/sender/receiver at n ∈ {256, 1024},
// each engine forced on its home topology (sparse on a bounded-degree
// grid, dense on the complete graph stored as CSR, implicit on
// Complete's closed form). Sparse is also forced on that CSR complete
// graph, the densest graph Auto hands it, so the word-row walk, the
// word-parallel scan and the closed form are on record side by side for
// the same graph.
// The schedule is the sparse-broadcaster regime the windowed dense path
// targets — n/64 contiguous broadcasters in the middle of the id range,
// as in an early Decay phase or a single WCT cluster layer's schedule
// slot. On the complete graph that is a collision at every listener,
// which the closed form resolves from the broadcaster total alone, so
// at n = 1024 a "stepset-lone" implicit row per fault model also times a
// lone broadcaster: the round whose n−1 listeners each resolve.
//
// Two sparse rows time the resolve walk over the touched-listener word
// window at its two extremes: scattered touches filling most words
// (WCT(4096)) and a window of mostly empty words (Path(10⁵)). A third
// times Hypercube(10), the word rows' worst case, where 4 of a node's 10
// neighbours each own a word. A "stepset-lone" sparse row per fault model
// times the star's hub round — one broadcaster and its 4096 leaves, every
// one a receiver — stepped with an rx set, as the star runners step it.
func EngineMicrobench() []benchreport.Microbench {
	var out []benchreport.Microbench
	for _, n := range []int{256, 1024} {
		grid := gridTopology(n)
		// G(n, 1) is the complete graph stored as CSR, which the dense
		// engine needs; Complete(n) is the closed form the implicit rows run.
		csr, complete := graph.GNP(n, 1, rng.New(0)), graph.Complete(n)
		midTx := microbenchTx(n, n/2, n/64)
		for _, fault := range []FaultModel{Faultless, SenderFaults, ReceiverFaults} {
			cfg := Config{Fault: fault}
			if fault != Faultless {
				cfg.P = 0.3
			}
			for _, m := range []struct {
				engine Engine
				top    graph.Topology
				name   string
			}{
				{Sparse, grid, "sparse/grid"},
				{Sparse, csr, "sparse/complete"},
				{Dense, csr, "dense/complete"},
				{Implicit, complete, "implicit/complete"},
			} {
				cfg.Engine = m.engine
				ns, allocs := measureRounds(m.top, cfg, midTx)
				out = append(out, benchreport.Microbench{
					Name:           fmt.Sprintf("stepset/%s/%s/n=%d", m.name, fault, n),
					NsPerRound:     ns,
					AllocsPerRound: allocs,
				})
			}
			if n == 1024 {
				cfg.Engine = Implicit
				ns, allocs := measureRounds(complete, cfg, microbenchTx(n, n/2, 1))
				out = append(out, benchreport.Microbench{
					Name:           fmt.Sprintf("stepset-lone/implicit/complete/%s/n=%d", fault, n),
					NsPerRound:     ns,
					AllocsPerRound: allocs,
				})
			}
		}
	}
	// Sparse resolve-walk rows. On WCT(4096), where E13 spends its time,
	// 8 senders touch most cluster members in scattered id order. On
	// Path(10⁵), two broadcasters 50k ids apart touch four listeners at
	// the ends of a ~780-word window, mostly empty: the walk's worst case.
	// On Hypercube(10), 16 broadcasters each apply five pairs, four of
	// them a lone bit: the fill walk's worst case.
	wct := graph.NewWCT(graph.DefaultWCTParams(4096), rng.New(0x776374))
	path := graph.Path(100000)
	spread := bitset.New(100000)
	spread.Set(25000)
	spread.Set(75000)
	for _, m := range []struct {
		top  graph.Topology
		tx   *bitset.Set
		name string
	}{
		{wct.Topology, microbenchTx(wct.G.N(), int(wct.Senders[0]), 8), "wct/receiver/n=4096"},
		{path, spread, "path-spread/receiver/n=100000"},
		{graph.Hypercube(10), microbenchTx(1024, 512, 16), "hypercube/receiver-faults/n=1024"},
	} {
		cfg := Config{Fault: ReceiverFaults, P: 0.3, Engine: Sparse}
		ns, allocs := measureRounds(m.top, cfg, m.tx)
		out = append(out, benchreport.Microbench{
			Name:           "stepset/sparse/" + m.name,
			NsPerRound:     ns,
			AllocsPerRound: allocs,
		})
	}
	// The hub round: star-routing's and star-coding's every round, in
	// which the hub's leaves each resolve into the round's rx set.
	star := graph.Star(4096)
	for _, fault := range []FaultModel{Faultless, SenderFaults, ReceiverFaults} {
		cfg := Config{Fault: fault, Engine: Sparse}
		if fault != Faultless {
			cfg.P = 0.3
		}
		ns, allocs := measureRounds(star, cfg, microbenchTx(star.G.N(), 0, 1))
		out = append(out, benchreport.Microbench{
			Name:           fmt.Sprintf("stepset-lone/sparse/star/%s/n=%d", fault, star.G.N()),
			NsPerRound:     ns,
			AllocsPerRound: allocs,
		})
	}
	// Fault-draw kernel rows: a real round on the implicit engine with
	// every node of Complete(10⁵) broadcasting — 10⁵ draw sites per
	// round, the regime the draw contract versioning exists for. Every
	// listener collides, so the round is the sender-fault marking pass
	// (one drawState.mask call per tx word) plus one collision count, and
	// the harness adds its rx clear: the row isolates the cost the draw
	// contract governs. v1 pays one Bernoulli per site; v2 pays one
	// geometric draw per fault and a popcount per word, so the v1/v2
	// ratio at sparse p is the geometric-skip speedup the CI gate enforces
	// (benchgate -min-geomskip-speedup, on the p=0.001 rows). The p=0.5
	// rows document the crossover end: at dense fault rates skipping buys
	// nothing, and a skip per fault, even one read off rng.Geometric's
	// threshold table as at p = ½, loses to the integer Bernoulli — which
	// is why v2 targets the sparse-failure regime and v1 remains the
	// default. The correlated contracts ride the same kernel: v3 pays one
	// geometric per *phase*, a popcount per word of a good phase and one
	// Bernoulli per bad site (gated against drifting past 2x of v2 at
	// matched sparse p by benchgate -max-burstdraw-ratio), v4 pays a
	// per-site coin like v1 plus a two-draw prelude on jammed rounds. v3
	// skips p=0.5: the default BadP=0.5 makes that marginal unreachable,
	// and the sparse end is where the contract lives anyway.
	const drawSites = 100000
	drawTop, drawTx := graph.Complete(drawSites), microbenchTx(drawSites, 0, drawSites)
	for _, dc := range DrawContracts() {
		ps := []float64{0.5, 0.01, 0.001}
		if dc == DrawV3 {
			ps = []float64{0.1, 0.01, 0.001}
		}
		for _, p := range ps {
			ns, allocs := measureRounds(drawTop, Config{Fault: SenderFaults, P: p, Draw: dc, Engine: Implicit}, drawTx)
			out = append(out, benchreport.Microbench{
				Name:           fmt.Sprintf("faultdraw/%s/p=%g/n=%d", dc, p, drawSites),
				NsPerRound:     ns,
				AllocsPerRound: allocs,
			})
		}
	}
	// Decay's pick kernel: a "round" is one rng.Geometric.Positions call
	// over 1,024 informed nodes, the draws that choose a Decay round's
	// broadcasters. At p = ½ every draw reads the inverse-CDF table, at
	// 2^-6 (the last tabled exponent) 37% pass its last cut and reach the
	// log1p formula, and at 2^-7 every draw does.
	const pickSites = 1024
	pickStream := rng.New(0x6465636179)
	var picks []int32
	for _, e := range []int{1, 6, 7} {
		skip := rng.NewGeometric(math.Ldexp(1, -e))
		ns, allocs := timeRounds(func() { picks = skip.Positions(pickStream, pickSites, picks[:0]) })
		out = append(out, benchreport.Microbench{
			Name:           fmt.Sprintf("decaypick/p=2^-%d/n=%d", e, pickSites),
			NsPerRound:     ns,
			AllocsPerRound: allocs,
		})
	}
	return out
}

// gridTopology returns a √n×√n grid (n must be a square of a power of 2,
// as the benchmark sizes are).
func gridTopology(n int) graph.Topology {
	side := 1
	for side*side < n {
		side *= 2
	}
	return graph.Grid(side, side)
}

// microbenchTx returns a benchmark broadcast set of nTx contiguous
// broadcasters starting at start — the single definition of the schedule
// every engine benchmark derives from, so the compared rows can never
// drift onto different schedules.
func microbenchTx(n, start, nTx int) *bitset.Set {
	tx := bitset.New(n)
	for v := start; v < start+nTx && v < n; v++ {
		tx.Set(v)
	}
	return tx
}

// measureRounds times one configuration broadcasting tx every round
// through the shared timeRounds harness. Receptions accumulate in an rx
// set cleared every round, as the single-message, star and WCT runners
// take them. It panics when top cannot run the forced engine, so a row
// always times the engine its name says.
func measureRounds(top graph.Topology, cfg Config, tx *bitset.Set) (nsPerRound, allocsPerRound float64) {
	net := MustNew[int32](top.G, cfg, rng.New(0x6d6963726f))
	if net.Engine() != cfg.Engine {
		panic(fmt.Sprintf("radio: microbench forced the %v engine on %s, which runs %v", cfg.Engine, top.Name, net.Engine()))
	}
	n := top.G.N()
	payload := make([]int32, n)
	rx := bitset.New(n)
	return timeRounds(func() {
		rx.Reset()
		net.StepSet(tx, payload, rx, nil)
	})
}

// Every microbench row is the median of microbenchWindows timing
// windows of at least microbenchWindow each: one scheduler stall then
// spoils one window, not the row.
const (
	microbenchWindows = 5
	microbenchWindow  = 4 * time.Millisecond
)

// timeRounds is the single measurement protocol every microbenchmark row
// runs through, so compared rows can never drift onto different
// harnesses: a warmup, then allocations counted over a separate short
// pass so ReadMemStats stays out of the timed region, then the median
// ns/round of microbenchWindows timed windows.
func timeRounds(round func()) (nsPerRound, allocsPerRound float64) {
	const warmup = 16
	for i := 0; i < warmup; i++ {
		round()
	}
	allocsPerRound = countAllocs(32, round)
	return medianWindow(func() float64 { return timeWindow(round) }), allocsPerRound
}

// allocPasses is how many passes countAllocs counts.
const allocPasses = 3

// countAllocs returns the heap allocations per call of round, counted
// over allocPasses passes of n calls each; the pass with the fewest
// allocations sets the figure. As testing.AllocsPerRun does, it counts at
// GOMAXPROCS 1 and then restores the old value, so goroutines running on
// other Ps cannot add their allocations to the count. A goroutine that
// still allocates beside a pass now and then lands in that pass only,
// while round's own allocations recur in every pass, so the least pass
// drops the stray one and keeps round's.
func countAllocs(n int, round func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for pass := 0; pass < allocPasses; pass++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < n; i++ {
			round()
		}
		runtime.ReadMemStats(&ms1)
		least = min(least, ms1.Mallocs-ms0.Mallocs)
	}
	return float64(least) / float64(n)
}

// timeWindow runs round in doubling batches until microbenchWindow has
// passed (or 2²⁰ rounds ran) and returns the window's ns/round. Batches
// start at one round, so a window lasts at most about twice
// microbenchWindow, even for the millisecond-round faultdraw rows.
func timeWindow(round func()) float64 {
	rounds := 0
	start := time.Now() //lint:deterministic-ok microbench measures wall time; results feed reports, not simulation output
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			round()
		}
		rounds += batch
		//lint:deterministic-ok microbench timing loop; wall time never reaches simulation output
		if time.Since(start) >= microbenchWindow || rounds >= 1<<20 {
			break
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds) //lint:deterministic-ok microbench timing; reporting only
}

// medianWindow returns the median of microbenchWindows calls to window.
func medianWindow(window func() float64) float64 {
	var ns [microbenchWindows]float64
	for i := range ns {
		ns[i] = window()
	}
	sort.Float64s(ns[:])
	return ns[microbenchWindows/2]
}
