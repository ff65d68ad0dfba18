package sim

import (
	"testing"

	"noisyradio/internal/rng"
)

// cheapTrial is the worst case for dispatch overhead: the trial body is a
// few nanoseconds, so any per-trial scheduling cost dominates.
func cheapTrial(trial int, r *rng.Stream) (float64, error) {
	return float64(trial&1) + r.Float64()*0, nil
}

// BenchmarkSweepDispatch measures the sweep's per-trial dispatch and fold
// cost: one row of 2¹⁴ sub-microsecond trials on the default pool, so
// chunked dispatch and the in-order fold are nearly all that is timed.
func BenchmarkSweepDispatch(b *testing.B) {
	const trials = 1 << 14
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sw := NewSweep(SweepConfig{})
		sw.Add(trials, 1, cheapTrial)
		if err := sw.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/trials, "ns/trial")
}

// BenchmarkSweepQuickTableShape mimics a quick experiment table: many rows
// with tiny trial counts on one shared pool — the row-parallel case the
// sweep exists for.
func BenchmarkSweepQuickTableShape(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sw := NewSweep(SweepConfig{})
		for row := 0; row < 24; row++ {
			sw.Add(4, uint64(row), variableTrial)
		}
		if err := sw.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
