package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.50, 10, false}, // 9 samples above the median
		{20, 0.50, 10, true},
		{199, 0.95, 190, false},
		{200, 0.95, 190, true},
		{1000, 0.99, 990, true},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestLatencyMetricsPicksHighestSupportedTail(t *testing.T) {
	ms := latencyMetrics("hit", seq(150), true)
	if len(ms) != 2 || ms[0].Name != "hit_p50_ms" || ms[1].Name != "hit_p90_ms" || ms[1].Value != 135 {
		t.Fatalf("latencyMetrics over 150 samples = %+v, want p50 and p90=135", ms)
	}
	if ms := latencyMetrics("hit", seq(15), true); len(ms) != 0 {
		t.Fatalf("latencyMetrics over 15 samples = %+v, want none", ms)
	}
}

func TestMedian(t *testing.T) {
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median(1..4) = %v", m)
	}
	if m := median(seq(5)); m != 3 {
		t.Errorf("median(1..5) = %v", m)
	}
}
