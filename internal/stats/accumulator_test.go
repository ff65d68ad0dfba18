package stats

import (
	"errors"
	"math"
	"sort"
	"testing"

	"noisyradio/internal/rng"
)

func accOver(xs []float64) *Accumulator {
	a := &Accumulator{}
	for _, x := range xs {
		a.Add(x)
	}
	return a
}

// TestAccumulatorMatchesSummarize: on random inputs the streaming
// accumulator reproduces the buffered Summarize — bitwise for the
// insertion-order quantities (N, Mean, Min, Max), to rounding for the
// Welford ones (Stddev, CI95).
func TestAccumulatorMatchesSummarize(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{1, 2, 3, 5, 17, 1000, 10000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()*2000 - 500
		}
		a := accOver(xs)
		want := MustSummarize(xs)
		if a.N() != want.N {
			t.Fatalf("n=%d: N = %d, want %d", n, a.N(), want.N)
		}
		if a.Mean() != want.Mean {
			t.Fatalf("n=%d: Mean = %v, want %v (bitwise: same op order)", n, a.Mean(), want.Mean)
		}
		if a.Min() != want.Min || a.Max() != want.Max {
			t.Fatalf("n=%d: min/max = %v/%v, want %v/%v", n, a.Min(), a.Max(), want.Min, want.Max)
		}
		if !within(a.Stddev(), want.Stddev, 1e-9) {
			t.Fatalf("n=%d: Stddev = %v, want ~%v", n, a.Stddev(), want.Stddev)
		}
		if !within(a.CI95(), CI95(xs), 1e-9) {
			t.Fatalf("n=%d: CI95 = %v, want ~%v", n, a.CI95(), CI95(xs))
		}
	}
}

// TestAccumulatorQuantileAccuracy: P² estimates converge to the exact
// order statistics on a smooth distribution — within a few percent of the
// sample spread at 10k uniform samples — and are exact below 5 samples.
func TestAccumulatorQuantileAccuracy(t *testing.T) {
	r := rng.New(99)
	const n = 10000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	a := accOver(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	spread := sorted[n-1] - sorted[0]
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"median", a.Median(), Quantile(sorted, 0.5)},
		{"p10", a.P10(), Quantile(sorted, 0.1)},
		{"p90", a.P90(), Quantile(sorted, 0.9)},
	} {
		if math.Abs(tc.got-tc.want) > 0.02*spread {
			t.Fatalf("%s = %v, exact %v (spread %v)", tc.name, tc.got, tc.want, spread)
		}
	}
}

func TestAccumulatorQuantilesExactUnderFive(t *testing.T) {
	xs := []float64{42, -1, 7, 3}
	a := accOver(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if got, want := a.Median(), Quantile(sorted, 0.5); got != want {
		t.Fatalf("median = %v, want exact %v", got, want)
	}
	if got, want := a.P90(), Quantile(sorted, 0.9); got != want {
		t.Fatalf("p90 = %v, want exact %v", got, want)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	a := &Accumulator{}
	if a.N() != 0 || a.Mean() != 0 || a.CI95() != 0 || a.Stddev() != 0 {
		t.Fatalf("empty accumulator: N=%d Mean=%v CI95=%v", a.N(), a.Mean(), a.CI95())
	}
	if !math.IsNaN(a.Min()) || !math.IsNaN(a.Max()) || !math.IsNaN(a.Median()) {
		t.Fatalf("empty extremes should be NaN: %v %v %v", a.Min(), a.Max(), a.Median())
	}
	if _, err := a.Summary(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Summary on empty = %v, want ErrEmpty", err)
	}
}

func TestAccumulatorSingle(t *testing.T) {
	a := accOver([]float64{3.25})
	if a.Mean() != 3.25 || a.Stddev() != 0 || a.CI95() != 0 {
		t.Fatalf("single: mean=%v stddev=%v ci=%v", a.Mean(), a.Stddev(), a.CI95())
	}
	if a.Min() != 3.25 || a.Max() != 3.25 || a.Median() != 3.25 {
		t.Fatalf("single extremes: %v %v %v", a.Min(), a.Max(), a.Median())
	}
	s, err := a.Summary()
	if err != nil || s.N != 1 || s.Median != 3.25 {
		t.Fatalf("summary = %+v, %v", s, err)
	}
}

// TestAccumulatorDropsNaN: NaN is the failed-trial sentinel — excluded
// from every statistic, tracked in Dropped.
func TestAccumulatorDropsNaN(t *testing.T) {
	a := &Accumulator{}
	a.Add(1)
	a.Add(math.NaN())
	a.Add(3)
	a.Add(math.NaN())
	if a.N() != 2 || a.Dropped() != 2 {
		t.Fatalf("N=%d Dropped=%d, want 2/2", a.N(), a.Dropped())
	}
	if a.Mean() != 2 || a.Min() != 1 || a.Max() != 3 {
		t.Fatalf("stats polluted by NaN: mean=%v min=%v max=%v", a.Mean(), a.Min(), a.Max())
	}
	if math.IsNaN(a.Median()) {
		t.Fatal("median polluted by NaN")
	}
}

func TestAccumulatorSummaryAgainstSummarize(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.Float64() * 10
	}
	got, err := accOver(xs).Summary()
	if err != nil {
		t.Fatal(err)
	}
	want := MustSummarize(xs)
	if got.N != want.N || got.Mean != want.Mean || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("summary exact fields: %+v vs %+v", got, want)
	}
	if !within(got.Stddev, want.Stddev, 1e-9) {
		t.Fatalf("stddev %v vs %v", got.Stddev, want.Stddev)
	}
	spread := want.Max - want.Min
	for _, pair := range [][2]float64{{got.Median, want.Median}, {got.P10, want.P10}, {got.P90, want.P90}} {
		if math.Abs(pair[0]-pair[1]) > 0.03*spread {
			t.Fatalf("quantile estimate %v too far from exact %v", pair[0], pair[1])
		}
	}
}

func within(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

// --- Quantile / CI95 edge cases (the pre-existing buffered API) ---

func TestQuantileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile on empty input did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestQuantileOutOfRangePanics(t *testing.T) {
	for _, q := range []float64{-0.01, 1.01} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Quantile(q=%v) did not panic", q)
				}
			}()
			Quantile([]float64{1, 2}, q)
		}()
	}
}

func TestQuantileSingleElement(t *testing.T) {
	for _, q := range []float64{0, 0.5, 1} {
		if got := Quantile([]float64{7}, q); got != 7 {
			t.Fatalf("Quantile([7], %v) = %v", q, got)
		}
	}
}

func TestQuantileExtremes(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatalf("q=0/1 should be min/max: %v %v", Quantile(xs, 0), Quantile(xs, 1))
	}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
}

// TestQuantileNaNData documents the contract for NaN-polluted input: the
// interpolation propagates NaN rather than inventing a value. Callers that
// need NaN tolerance filter first (or use Accumulator, which drops NaN).
func TestQuantileNaNData(t *testing.T) {
	xs := []float64{1, math.NaN()}
	if got := Quantile(xs, 0.5); !math.IsNaN(got) {
		t.Fatalf("Quantile over NaN data = %v, want NaN propagation", got)
	}
}

func TestCI95Empty(t *testing.T) {
	if got := CI95(nil); got != 0 {
		t.Fatalf("CI95(nil) = %v, want 0", got)
	}
}

func TestCI95Single(t *testing.T) {
	if got := CI95([]float64{5}); got != 0 {
		t.Fatalf("CI95(one sample) = %v, want 0", got)
	}
}

func TestCI95NaNData(t *testing.T) {
	if got := CI95([]float64{1, math.NaN(), 3}); !math.IsNaN(got) {
		t.Fatalf("CI95 over NaN data = %v, want NaN propagation", got)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	r := rng.New(11)
	base := make([]float64, 100)
	for i := range base {
		base[i] = r.Float64()
	}
	big := make([]float64, 10000)
	for i := range big {
		big[i] = r.Float64()
	}
	if CI95(big) >= CI95(base) {
		t.Fatalf("CI95 did not shrink with n: %v vs %v", CI95(big), CI95(base))
	}
}

// TestAccumulatorChunkFoldOrderInvariance models the sweep's in-order
// folder over chunks: values arrive grouped into chunks whose size does
// not divide the trial count, the chunks complete out of order, and the
// folder replays them in index order. However the chunk size and the
// arrival permutation are chosen, the final state must match a plain
// sequential Add of the same values — sum and mean exactly, every other
// statistic identically, because the accumulator only ever sees the
// values in trial order.
func TestAccumulatorChunkFoldOrderInvariance(t *testing.T) {
	r := rng.New(99)
	const trials = 103 // prime: nothing divides it
	vals := make([]float64, trials)
	for i := range vals {
		vals[i] = r.Float64() * 100
		if i%11 == 7 {
			vals[i] = math.NaN() // failed-trial sentinel inside a batch
		}
	}
	var want Accumulator
	for _, v := range vals {
		want.Add(v)
	}

	for _, chunk := range []int{3, 8, 24, 64} {
		nchunks := (trials + chunk - 1) / chunk
		// Arrival order: a deterministic shuffle of the chunk indices.
		arrival := r.Perm(nchunks)
		pending := make(map[int][]float64)
		var acc Accumulator
		next := 0
		for _, idx := range arrival {
			start := idx * chunk
			end := start + chunk
			if end > trials {
				end = trials
			}
			pending[idx] = vals[start:end]
			for {
				v, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				for _, x := range v {
					acc.Add(x)
				}
				next++
			}
		}
		if next != nchunks || len(pending) != 0 {
			t.Fatalf("chunk=%d: folder did not drain (%d pending)", chunk, len(pending))
		}
		if acc.N() != want.N() || acc.Dropped() != want.Dropped() {
			t.Fatalf("chunk=%d: N/dropped = %d/%d, want %d/%d", chunk, acc.N(), acc.Dropped(), want.N(), want.Dropped())
		}
		if acc.Sum() != want.Sum() || acc.Mean() != want.Mean() {
			t.Fatalf("chunk=%d: sum/mean diverged from sequential fold", chunk)
		}
		if acc.Stddev() != want.Stddev() || acc.Median() != want.Median() ||
			acc.P10() != want.P10() || acc.P90() != want.P90() ||
			acc.Min() != want.Min() || acc.Max() != want.Max() {
			t.Fatalf("chunk=%d: order-sensitive statistics diverged from sequential fold", chunk)
		}
	}
}

// TestAccumulatorNaNOnBatchBoundary pins the sentinel bookkeeping when a
// whole batch is NaN and when NaNs straddle a batch edge: dropped counts
// and the surviving sample must be unaffected by where batch boundaries
// fall.
func TestAccumulatorNaNOnBatchBoundary(t *testing.T) {
	vals := []float64{1, math.NaN(), math.NaN(), math.NaN(), 5, 6, math.NaN(), 8, 9, 10}
	var a Accumulator
	for _, v := range vals {
		a.Add(v)
	}
	if a.N() != 6 || a.Dropped() != 4 {
		t.Fatalf("N/dropped = %d/%d, want 6/4", a.N(), a.Dropped())
	}
	if a.Sum() != 39 {
		t.Fatalf("Sum = %v, want 39", a.Sum())
	}
	if a.Min() != 1 || a.Max() != 10 {
		t.Fatalf("min/max = %v/%v, want 1/10", a.Min(), a.Max())
	}
}
