package radio

import (
	"fmt"
	"runtime"
	"time"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// EngineMicrobench measures the per-round engine microbenchmarks the CI
// bench gate tracks: ns/round and allocs/round through StepSet for
// sparse/dense/implicit × faultless/sender/receiver at n ∈ {256, 1024},
// each engine on its home topology (sparse on a bounded-degree grid,
// dense and implicit on a complete graph — implicit forced below its
// auto threshold so the trajectory of the closed-form counter is on
// record at comparable sizes). The schedule is the sparse-broadcaster regime the
// windowed dense path targets — n/64 contiguous broadcasters in the middle
// of the id range, as in an early Decay phase or a single WCT cluster
// layer's schedule slot.
//
// Two extra rows per n quantify the fast path against its own
// compatibility layers on the dense engine: "step" drives the identical
// round through the []bool adapter (the packing scan the set-native API
// removes), and "stepset-fullscan" disables the tx/row word windows (the
// pre-window resolution). Their ratios to the plain dense "stepset" row
// are what the StepSet redesign buys per round.
//
// Two sparse rows time the resolve walk over the touched-listener word
// window at its two extremes: scattered touches filling most words
// (WCT(4096)) and a window of mostly empty words (Path(10⁵)).
func EngineMicrobench() []benchreport.Microbench {
	var out []benchreport.Microbench
	for _, n := range []int{256, 1024} {
		grid := gridTopology(n)
		complete := graph.Complete(n)
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
				{Dense, complete, "dense/complete"},
				{Implicit, complete, "implicit/complete"},
			} {
				cfg.Engine = m.engine
				ns, allocs := measureRounds(m.top, cfg, midTx, stepModeSet, false)
				out = append(out, benchreport.Microbench{
					Name:           fmt.Sprintf("stepset/%s/%s/n=%d", m.name, fault, n),
					NsPerRound:     ns,
					AllocsPerRound: allocs,
				})
			}
		}
		// Dense controls: the []bool adapter and the window-disabled scan.
		ctl := Config{Fault: Faultless, Engine: Dense}
		ns, allocs := measureRounds(complete, ctl, midTx, stepModeBools, false)
		out = append(out, benchreport.Microbench{
			Name:           fmt.Sprintf("step/dense/complete/%s/n=%d", Faultless, n),
			NsPerRound:     ns,
			AllocsPerRound: allocs,
		})
		ns, allocs = measureRounds(complete, ctl, midTx, stepModeSet, true)
		out = append(out, benchreport.Microbench{
			Name:           fmt.Sprintf("stepset-fullscan/dense/complete/%s/n=%d", Faultless, n),
			NsPerRound:     ns,
			AllocsPerRound: allocs,
		})
		// Trial-batched rounds with w live lanes: ns are per *trial-round*
		// (one StepBatch round costs w trial-rounds), so these rows
		// compare directly against the scalar stepset rows above — the
		// w=16 dense/complete row versus
		// "stepset/dense/complete/faultless" is the batching speedup the
		// CI gate enforces.
		for _, w := range []int{1, 4, 8, 16} {
			ns, allocs = measureBatchRounds(complete, ctl, n, w)
			out = append(out, benchreport.Microbench{
				Name:           fmt.Sprintf("stepbatch/w=%d/dense/complete/%s/n=%d", w, Faultless, n),
				NsPerRound:     ns,
				AllocsPerRound: allocs,
			})
		}
	}
	// Sparse resolve-walk rows. On WCT(4096), where E13 spends its time,
	// 8 senders touch most cluster members in scattered id order. On
	// Path(10⁵), two broadcasters 50k ids apart touch four listeners at
	// the ends of a ~780-word window, mostly empty: the walk's worst case.
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
	} {
		cfg := Config{Fault: ReceiverFaults, P: 0.3, Engine: Sparse}
		ns, allocs := measureRounds(m.top, cfg, m.tx, stepModeSet, false)
		out = append(out, benchreport.Microbench{
			Name:           "stepset/sparse/" + m.name,
			NsPerRound:     ns,
			AllocsPerRound: allocs,
		})
	}
	// Fault-draw kernel rows: the sender-fault marking pass alone (plus
	// its end-of-round clear) with every node of an implicit Complete(10⁵)
	// broadcasting — 10⁵ draw sites per round, the regime the draw
	// contract versioning exists for. v1 pays one Bernoulli per site; v2
	// pays one geometric draw per fault, so the v1/v2 ratio at sparse p is
	// the geometric-skip speedup the CI gate enforces
	// (benchgate -min-geomskip-speedup, on the p=0.001 rows). The p=0.5
	// rows document the crossover end: at dense fault rates skipping buys
	// nothing and the log/divide per fault may even lose to the integer
	// Bernoulli — which is why v2 targets the sparse-failure regime and v1
	// remains the default. The correlated contracts ride the same kernel:
	// v3's bulk walk pays one geometric per *phase* plus one Bernoulli per
	// bad site (gated against drifting past 2x of v2 at matched sparse p by
	// benchgate -max-burstdraw-ratio), v4 pays a per-site coin like v1 plus
	// a two-draw prelude on jammed rounds. v3 skips p=0.5: the default
	// BadP=0.5 makes that marginal unreachable, and the sparse end is where
	// the contract lives anyway.
	for _, dc := range DrawContracts() {
		ps := []float64{0.5, 0.01, 0.001}
		if dc == DrawV3 {
			ps = []float64{0.1, 0.01, 0.001}
		}
		for _, p := range ps {
			ns, allocs := measureFaultDraws(100000, p, dc)
			out = append(out, benchreport.Microbench{
				Name:           fmt.Sprintf("faultdraw/%s/p=%g/n=%d", dc, p, 100000),
				NsPerRound:     ns,
				AllocsPerRound: allocs,
			})
		}
	}
	return out
}

// measureFaultDraws times the sender-fault draw kernel under the given
// contract: markBroadcasters over an all-ones broadcast set (the marking
// pass every engine's round starts with) followed by finishRound's
// sender-noise clear. No listener resolution — the row isolates exactly
// the cost the draw contract governs.
func measureFaultDraws(n int, p float64, dc DrawContract) (nsPerRound, allocsPerRound float64) {
	top := graph.ImplicitComplete(n)
	net := MustNew[int32](top.G, Config{Fault: SenderFaults, P: p, Draw: dc}, rng.New(0x6d6963726f))
	tx := bitset.New(n)
	for v := 0; v < n; v++ {
		tx.Set(v)
	}
	txw := tx.Words()
	lo, hi := tx.NonzeroRange()
	return timeRounds(func() {
		net.markBroadcasters(txw, lo, hi)
		net.finishRound(tx)
	})
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
// every engine benchmark (and its []bool control, via ForEach) derives
// from, so the compared rows can never drift onto different schedules.
func microbenchTx(n, start, nTx int) *bitset.Set {
	tx := bitset.New(n)
	for v := start; v < start+nTx && v < n; v++ {
		tx.Set(v)
	}
	return tx
}

const (
	stepModeSet   = 0 // drive StepSet
	stepModeBools = 1 // drive the Step []bool adapter
)

// measureBatchRounds times StepBatch with w live lanes under the same
// schedule as measureRounds runs scalar StepSet — every live lane
// broadcasts the microbenchTx set — and reports ns and allocations per
// *trial-round* (one batch round divided by w), directly comparable to
// the scalar rows. The kernel resolves MaxBatchWidth lanes whatever w is,
// so rows below that width measure what a partly filled batch costs.
func measureBatchRounds(top graph.Topology, cfg Config, n, w int) (nsPerTrialRound, allocsPerTrialRound float64) {
	rnds := make([]*rng.Stream, w)
	for l := range rnds {
		rnds[l] = rng.NewFrom(0x6d6963726f, uint64(l))
	}
	net := MustNewBatch[int32](top.G, cfg, rnds)
	scalarTx := microbenchTx(n, n/2, n/64)
	tx := bitset.NewBlock(n, MaxBatchWidth)
	for l := 0; l < w; l++ {
		tx.LaneCopyFrom(l, scalarTx)
	}
	rx := bitset.NewBlock(n, MaxBatchWidth)
	active := uint64(1)<<uint(w) - 1
	ns, allocs := timeRounds(func() {
		rx.Reset()
		net.StepBatch(tx, nil, rx, active, nil)
	})
	return ns / float64(w), allocs / float64(w)
}

// measureRounds times one configuration broadcasting tx every round
// through the shared timeRounds harness.
func measureRounds(top graph.Topology, cfg Config, tx *bitset.Set, mode int, fullScan bool) (nsPerRound, allocsPerRound float64) {
	net := MustNew[int32](top.G, cfg, rng.New(0x6d6963726f))
	net.setFullScan(fullScan)
	n := top.G.N()
	payload := make([]int32, n)
	bc := make([]bool, n)
	tx.ForEach(func(v int) { bc[v] = true })
	rx := bitset.New(n)
	return timeRounds(func() {
		rx.Reset()
		if mode == stepModeBools {
			net.Step(bc, payload, nil)
		} else {
			net.StepSet(tx, payload, rx, nil)
		}
	})
}

// timeRounds is the single measurement protocol every microbenchmark row
// (scalar and batch alike) runs through, so compared rows can never drift
// onto different harnesses: median-free single-pass timing (the CI gate's
// generous budget absorbs scheduler noise) after a warmup, with
// allocations counted over a separate short pass so ReadMemStats stays
// out of the timed region.
func timeRounds(round func()) (nsPerRound, allocsPerRound float64) {
	const warmup = 16
	for i := 0; i < warmup; i++ {
		round()
	}

	const allocRounds = 32
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < allocRounds; i++ {
		round()
	}
	runtime.ReadMemStats(&ms1)
	allocsPerRound = float64(ms1.Mallocs-ms0.Mallocs) / allocRounds

	rounds := 0
	start := time.Now() //lint:deterministic-ok microbench measures wall time; results feed reports, not simulation output
	for batch := 64; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			round()
		}
		rounds += batch
		//lint:deterministic-ok microbench timing loop; wall time never reaches simulation output
		if time.Since(start) >= 10*time.Millisecond || rounds >= 1<<20 {
			break
		}
	}
	nsPerRound = float64(time.Since(start).Nanoseconds()) / float64(rounds) //lint:deterministic-ok microbench timing; reporting only
	return nsPerRound, allocsPerRound
}
