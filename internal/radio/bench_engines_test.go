package radio

import (
	"fmt"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// benchStep measures Step on top with a fixed broadcast pattern (each node
// transmits with probability txFrac, drawn once up front) under the given
// engine. Per-round allocations must be zero for both engines.
func benchStep(b *testing.B, top graph.Topology, cfg Config, txFrac float64) {
	b.Helper()
	net := MustNew[int32](top.G, cfg, rng.New(2))
	driver := rng.New(3)
	bc := make([]bool, top.G.N())
	payload := make([]int32, top.G.N())
	for v := range bc {
		bc[v] = driver.Bool(txFrac)
		payload[v] = int32(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step(bc, payload, nil)
	}
}

// BenchmarkStepDenseComplete pins the headline acceptance number: on
// graph.Complete(1024) the dense engine must be >= 3x faster per round
// than the sparse engine, with zero per-round allocations.
func BenchmarkStepDenseComplete(b *testing.B) {
	top := graph.Complete(1024)
	for _, eng := range []Engine{Sparse, Dense} {
		b.Run(eng.String(), func(b *testing.B) {
			benchStep(b, top, Config{Fault: ReceiverFaults, P: 0.3, Engine: eng}, 0.1)
		})
	}
}

// BenchmarkStepDenseGNP compares the engines on a dense random graph.
func BenchmarkStepDenseGNP(b *testing.B) {
	top := graph.GNP(1024, 0.5, rng.New(1))
	for _, eng := range []Engine{Sparse, Dense} {
		b.Run(eng.String(), func(b *testing.B) {
			benchStep(b, top, Config{Fault: SenderFaults, P: 0.3, Engine: eng}, 0.1)
		})
	}
}

// BenchmarkStepDenseWCT compares the engines on the worst-case topology of
// Section 5.1.2, whose cluster layers are the dense regime the coding
// schedules exercise.
func BenchmarkStepDenseWCT(b *testing.B) {
	w := graph.NewWCT(graph.DefaultWCTParams(1024), rng.New(4))
	top := graph.Topology{G: w.G, Source: w.Source, Name: "wct"}
	for _, eng := range []Engine{Sparse, Dense} {
		b.Run(eng.String(), func(b *testing.B) {
			benchStep(b, top, Config{Fault: ReceiverFaults, P: 0.3, Engine: eng}, 0.1)
		})
	}
}

// BenchmarkStepDenseSilent measures the empty-round fast path: no
// broadcasters at all.
func BenchmarkStepDenseSilent(b *testing.B) {
	top := graph.Complete(1024)
	for _, eng := range []Engine{Sparse, Dense} {
		b.Run(eng.String(), func(b *testing.B) {
			benchStep(b, top, Config{Fault: Faultless, Engine: eng}, 0)
		})
	}
}

// benchStepSet measures StepSet with nTx contiguous broadcasters starting
// at start, receptions batched into an rx bitset (no closure). Per-round
// allocations must be zero.
func benchStepSet(b *testing.B, top graph.Topology, cfg Config, start, nTx int, fullScan bool) {
	b.Helper()
	net := MustNew[int32](top.G, cfg, rng.New(2))
	net.setFullScan(fullScan)
	n := top.G.N()
	payload := make([]int32, n)
	tx := microbenchTx(n, start, nTx)
	rx := bitset.New(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.Reset()
		net.StepSet(tx, payload, rx, nil)
	}
}

// BenchmarkStepSetSparseBroadcasters pins the windowing acceptance number:
// on Complete(1024) with n/64 contiguous mid-range broadcasters (the
// early-Decay / single-slot regime; well under the ≤ n/16 bar), the
// windowed dense resolution must be ≥ 2x faster per round than the
// full-scan resolution the engine used before row/tx windows, with zero
// per-round allocations. The Step variant measures what the []bool
// adapter's packing scan costs on top.
func BenchmarkStepSetSparseBroadcasters(b *testing.B) {
	top := graph.Complete(1024)
	n := top.G.N()
	cfg := Config{Fault: ReceiverFaults, P: 0.3, Engine: Dense}
	b.Run("stepset-windowed", func(b *testing.B) {
		benchStepSet(b, top, cfg, n/2, n/64, false)
	})
	b.Run("stepset-fullscan", func(b *testing.B) {
		benchStepSet(b, top, cfg, n/2, n/64, true)
	})
	b.Run("step-adapter", func(b *testing.B) {
		net := MustNew[int32](top.G, cfg, rng.New(2))
		payload := make([]int32, n)
		bc := make([]bool, n)
		microbenchTx(n, n/2, n/64).ForEach(func(v int) { bc[v] = true })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Step(bc, payload, nil)
		}
	})
	b.Run("sparse-engine", func(b *testing.B) {
		sparse := cfg
		sparse.Engine = Sparse
		benchStepSet(b, top, sparse, n/2, n/64, false)
	})
}

// BenchmarkStepSetWCT exercises the windowed path on the worst-case
// topology with a single cluster-scale worth of broadcasters.
func BenchmarkStepSetWCT(b *testing.B) {
	w := graph.NewWCT(graph.DefaultWCTParams(1024), rng.New(4))
	top := graph.Topology{G: w.G, Source: w.Source, Name: "wct"}
	n := top.G.N()
	for _, eng := range []Engine{Sparse, Dense} {
		b.Run(eng.String(), func(b *testing.B) {
			benchStepSet(b, top, Config{Fault: ReceiverFaults, P: 0.3, Engine: eng}, 1, n/64, false)
		})
	}
}

// BenchmarkStepBatch pins the trial-batching acceptance number: on
// graph.Complete(1024) with the standard microbench schedule, StepBatch
// with 16 live lanes must cost >= 2.5x less per trial-round than scalar
// StepSet, with zero per-round allocations (benchgate
// -min-stepbatch-speedup gates the stepbatch/w=16 microbench row). The
// w=1, 4 and 8 rows run that many live lanes in the same 16-lane kernel.
// Reported ns/op is one batch round (divide by the live lane count for
// the per-trial figure).
func BenchmarkStepBatch(b *testing.B) {
	top := graph.Complete(1024)
	n := top.G.N()
	cfg := Config{Fault: Faultless, Engine: Dense}
	b.Run("scalar-stepset", func(b *testing.B) {
		benchStepSet(b, top, cfg, n/2, n/64, false)
	})
	for _, w := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			rnds := make([]*rng.Stream, w)
			for l := range rnds {
				rnds[l] = rng.NewFrom(2, uint64(l))
			}
			net := MustNewBatch[int32](top.G, cfg, rnds)
			scalarTx := microbenchTx(n, n/2, n/64)
			tx := bitset.NewBlock(n, MaxBatchWidth)
			for l := 0; l < w; l++ {
				tx.LaneCopyFrom(l, scalarTx)
			}
			rx := bitset.NewBlock(n, MaxBatchWidth)
			active := uint64(1)<<uint(w) - 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rx.Reset()
				net.StepBatch(tx, nil, rx, active, nil)
			}
		})
	}
}
