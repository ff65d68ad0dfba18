package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1 || s.Mean != 3.5 || s.Min != 3.5 || s.Max != 3.5 || s.Median != 3.5 {
		t.Fatalf("Summarize single = %+v", s)
	}
	if s.Stddev != 0 {
		t.Fatalf("Stddev of single sample = %v, want 0", s.Stddev)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// 1..5: mean 3, sample stddev sqrt(2.5), median 3.
	s, err := Summarize([]float64{5, 3, 1, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 3 {
		t.Fatalf("Mean = %v, want 3", s.Mean)
	}
	if !approxEq(s.Stddev, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("Stddev = %v, want sqrt(2.5)", s.Stddev)
	}
	if s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	tests := []struct {
		q, want float64
	}{
		{q: 0, want: 1},
		{q: 1, want: 4},
		{q: 0.5, want: 2.5},
		{q: 1.0 / 3, want: 2},
	}
	for _, tt := range tests {
		if got := Quantile(sorted, tt.q); !approxEq(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		Quantile(nil, 0.5)
	})
	t.Run("out of range", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		Quantile([]float64{1}, 1.5)
	})
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Fatalf("Mean = %v, want 4", got)
	}
}

func TestCI95(t *testing.T) {
	if got := CI95([]float64{1}); got != 0 {
		t.Fatalf("CI95 of 1 sample = %v, want 0", got)
	}
	// Constant data: zero stddev, zero CI.
	if got := CI95([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("CI95 of constant = %v, want 0", got)
	}
	got := CI95([]float64{0, 10}) // stddev = sqrt(50)
	want := 1.96 * math.Sqrt(50) / math.Sqrt(2)
	if !approxEq(got, want, 1e-9) {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(f.Slope, 2, 1e-12) || !approxEq(f.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v, want slope 2 intercept 1", f)
	}
	if !approxEq(f.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths: no error")
	}
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point: no error")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("identical x: no error")
	}
}

func TestLogLogFitPowerLaw(t *testing.T) {
	// y = 3 x^2
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	f, err := LogLogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(f.Slope, 2, 1e-9) {
		t.Fatalf("log-log slope = %v, want 2", f.Slope)
	}
	if !approxEq(math.Exp(f.Intercept), 3, 1e-9) {
		t.Fatalf("exp(intercept) = %v, want 3", math.Exp(f.Intercept))
	}
}

func TestLogLogFitRejectsNonPositive(t *testing.T) {
	if _, err := LogLogFit([]float64{1, 0}, []float64{1, 1}); err == nil {
		t.Fatal("zero x accepted")
	}
	if _, err := LogLogFit([]float64{1, 2}, []float64{1, -1}); err == nil {
		t.Fatal("negative y accepted")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(6, 3); got != 2 {
		t.Fatalf("Ratio = %v", got)
	}
	if got := Ratio(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("Ratio(1,0) = %v, want +Inf", got)
	}
	if got := Ratio(-1, 0); !math.IsInf(got, -1) {
		t.Fatalf("Ratio(-1,0) = %v, want -Inf", got)
	}
	if got := Ratio(0, 0); !math.IsNaN(got) {
		t.Fatalf("Ratio(0,0) = %v, want NaN", got)
	}
}

func TestGeometricMean(t *testing.T) {
	got, err := GeometricMean([]float64{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(got, 10, 1e-9) {
		t.Fatalf("GeometricMean = %v, want 10", got)
	}
	if _, err := GeometricMean(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty: err = %v", err)
	}
	if _, err := GeometricMean([]float64{1, 0}); err == nil {
		t.Fatal("zero accepted")
	}
}

// Property: mean lies within [min, max] and median within [P10, P90] bounds.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := MustSummarize(xs)
		const eps = 1e-6
		if s.Mean < s.Min-eps || s.Mean > s.Max+eps {
			return false
		}
		if s.Median < s.Min-eps || s.Median > s.Max+eps {
			return false
		}
		if s.P10 > s.Median+eps || s.Median > s.P90+eps {
			return false
		}
		return s.Stddev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: LinearFit recovers slope and intercept from exact lines.
func TestQuickLinearFitRecovers(t *testing.T) {
	f := func(slopeRaw, interceptRaw int8) bool {
		slope := float64(slopeRaw)
		intercept := float64(interceptRaw)
		xs := []float64{0, 1, 2, 3, 4, 5}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = slope*x + intercept
		}
		fit, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		return approxEq(fit.Slope, slope, 1e-9) && approxEq(fit.Intercept, intercept, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
