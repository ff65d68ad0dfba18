// Package stats provides the summary statistics and regression fits used by
// the experiment harness: means with confidence intervals, quantiles, and
// log–log slope fits for scaling-law estimation.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds standard summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
	P10    float64
	P90    float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty for an empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P10 = Quantile(sorted, 0.1)
	s.P90 = Quantile(sorted, 0.9)
	return s, nil
}

// MustSummarize is Summarize but panics on empty input. For use in
// experiment code where an empty sample is a programming error.
func MustSummarize(xs []float64) Summary {
	s, err := Summarize(xs)
	if err != nil {
		panic(err)
	}
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted (ascending) data
// using linear interpolation. It panics on empty input or unsorted-looking
// out-of-range q.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic(ErrEmpty)
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean of xs. Returns 0 for fewer than 2 samples.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := MustSummarize(xs)
	return 1.96 * s.Stddev / math.Sqrt(float64(s.N))
}

// Fit holds the result of a least-squares line fit y = Slope*x + Intercept.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit computes the ordinary least squares fit of ys on xs.
// It returns an error if the inputs differ in length or have fewer than two
// points, or if all xs are identical.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, errors.New("stats: need at least two points to fit")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, errors.New("stats: all x values identical")
	}
	f := Fit{Slope: sxy / sxx}
	f.Intercept = my - f.Slope*mx
	if syy == 0 {
		f.R2 = 1
	} else {
		f.R2 = (sxy * sxy) / (sxx * syy)
	}
	return f, nil
}

// LogLogFit fits log(y) = Slope*log(x) + Intercept, i.e. estimates the
// exponent of a power law y ~ x^Slope. All inputs must be positive.
func LogLogFit(xs, ys []float64) (Fit, error) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return Fit{}, fmt.Errorf("stats: non-positive point (%v, %v) in log-log fit", xs[i], ys[i])
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	return LinearFit(lx, ly)
}

// Ratio returns a/b, guarding against division by zero (returns +Inf/NaN
// semantics of IEEE 754 would hide bugs; we surface an explicit NaN only for
// 0/0 and let callers decide).
func Ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return math.NaN()
		}
		return math.Inf(sign(a))
	}
	return a / b
}

func sign(a float64) int {
	if a < 0 {
		return -1
	}
	return 1
}

// GeometricMean returns the geometric mean of positive xs.
func GeometricMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: non-positive value %v in geometric mean", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}
