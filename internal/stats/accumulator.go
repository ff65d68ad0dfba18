package stats

import "math"

// Accumulator is a single-pass, O(1)-memory summary of a float64 sample:
// exact count/sum/min/max, Welford mean/variance, and P² (Jain–Chlamtac)
// estimates of the 0.1/0.5/0.9 quantiles. It is the streaming counterpart
// of Summarize for sweeps whose per-row trial counts are too large to
// buffer.
//
// Exactness contract:
//
//   - Mean is computed from a plain running sum in insertion order, so a
//     sequence of Add calls in trial order reproduces Mean(xs)
//     bit-for-bit.
//   - Stddev/CI95 use Welford's recurrence, which agrees with the two-pass
//     Summarize values up to floating-point rounding (~1 ulp relative).
//   - Median/P10/P90 are exact while N <= 5 and P² approximations beyond;
//     the estimate error vanishes as N grows for continuous distributions.
//
// Values that are NaN are not folded into the sample: they increment
// Dropped instead, so trial runners can use NaN as a "failed trial"
// sentinel and recover the success rate as N/(N+Dropped).
//
// The zero value is an empty accumulator ready for use. Accumulator is not
// safe for concurrent use.
type Accumulator struct {
	n       int64
	dropped int64
	sum     float64 // running sum, for the exact insertion-order mean
	mean    float64 // Welford running mean, for variance only
	m2      float64 // Welford sum of squared deviations
	min     float64
	max     float64
	q10     p2Estimator
	q50     p2Estimator
	q90     p2Estimator
}

// Add folds one observation into the accumulator. NaN observations are
// counted in Dropped and otherwise ignored.
func (a *Accumulator) Add(x float64) {
	if math.IsNaN(x) {
		a.dropped++
		return
	}
	a.n++
	a.sum += x
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.q10.add(0.1, x)
	a.q50.add(0.5, x)
	a.q90.add(0.9, x)
}

// N returns the number of accumulated (non-NaN) observations.
func (a *Accumulator) N() int { return int(a.n) }

// Dropped returns the number of NaN observations rejected by Add.
func (a *Accumulator) Dropped() int { return int(a.dropped) }

// Mean returns the arithmetic mean, or 0 for an empty accumulator
// (matching Mean on an empty slice).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Sum returns the running sum of the observations.
func (a *Accumulator) Sum() float64 { return a.sum }

// Variance returns the sample variance (n-1 denominator), or 0 for fewer
// than two observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Stddev returns the sample standard deviation (n-1 denominator), or 0 for
// fewer than two observations.
func (a *Accumulator) Stddev() float64 { return math.Sqrt(a.Variance()) }

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean, or 0 for fewer than two observations (matching
// CI95 on a slice).
func (a *Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return 1.96 * a.Stddev() / math.Sqrt(float64(a.n))
}

// Min returns the smallest observation, or NaN when empty.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest observation, or NaN when empty.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// Median returns the P² estimate of the median (exact for N <= 5), or NaN
// when empty.
func (a *Accumulator) Median() float64 { return a.q50.estimate(0.5) }

// P10 returns the P² estimate of the 0.1 quantile (exact for N <= 5), or
// NaN when empty.
func (a *Accumulator) P10() float64 { return a.q10.estimate(0.1) }

// P90 returns the P² estimate of the 0.9 quantile (exact for N <= 5), or
// NaN when empty.
func (a *Accumulator) P90() float64 { return a.q90.estimate(0.9) }

// Summary renders the accumulated state as a Summary. Median/P10/P90 are
// P² estimates rather than exact order statistics; everything else matches
// Summarize up to floating-point rounding. It returns ErrEmpty for an
// empty accumulator.
func (a *Accumulator) Summary() (Summary, error) {
	if a.n == 0 {
		return Summary{}, ErrEmpty
	}
	return Summary{
		N:      int(a.n),
		Mean:   a.Mean(),
		Stddev: a.Stddev(),
		Min:    a.min,
		Max:    a.max,
		Median: a.Median(),
		P10:    a.P10(),
		P90:    a.P90(),
	}, nil
}

// p2Estimator is the P² streaming quantile estimator of Jain & Chlamtac
// (CACM 1985): five markers whose heights track the min, the p/2, p and
// (1+p)/2 quantiles and the max, adjusted towards their desired positions
// with piecewise-parabolic interpolation after every observation.
type p2Estimator struct {
	n   int64      // observations folded so far
	h   [5]float64 // marker heights (first n entries buffer raw values while n < 5)
	pos [5]float64 // actual marker positions, 1-based
	des [5]float64 // desired marker positions
}

// add folds x into the estimator for quantile p.
func (e *p2Estimator) add(p, x float64) {
	if e.n < 5 {
		// Insertion-sort x into the initial buffer.
		i := int(e.n)
		for i > 0 && e.h[i-1] > x {
			e.h[i] = e.h[i-1]
			i--
		}
		e.h[i] = x
		e.n++
		if e.n == 5 {
			for j := range e.pos {
				e.pos[j] = float64(j + 1)
			}
			e.des = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}
	e.n++

	// Find the cell k with h[k] <= x < h[k+1], extending the extremes.
	var k int
	switch {
	case x < e.h[0]:
		e.h[0] = x
		k = 0
	case x >= e.h[4]:
		if x > e.h[4] {
			e.h[4] = x
		}
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.h[k+1] {
				break
			}
		}
	}

	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	inc := [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	for i := range e.des {
		e.des[i] += inc[i]
	}

	// Nudge interior markers towards their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.des[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			if d >= 1 {
				d = 1
			} else {
				d = -1
			}
			if h := e.parabolic(i, d); e.h[i-1] < h && h < e.h[i+1] {
				e.h[i] = h
			} else {
				e.h[i] = e.linear(i, d)
			}
			e.pos[i] += d
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for marker i
// moved by d (±1).
func (e *p2Estimator) parabolic(i int, d float64) float64 {
	return e.h[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.h[i+1]-e.h[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.h[i]-e.h[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback linear height prediction for marker i moved by d.
func (e *p2Estimator) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.h[i] + d*(e.h[j]-e.h[i])/(e.pos[j]-e.pos[i])
}

// estimate returns the current quantile estimate: NaN when empty, the
// exact order statistic while n < 5, the center marker height afterwards.
func (e *p2Estimator) estimate(p float64) float64 {
	if e.n == 0 {
		return math.NaN()
	}
	if e.n < 5 {
		sorted := make([]float64, e.n)
		copy(sorted, e.h[:e.n])
		return Quantile(sorted, p)
	}
	return e.h[2]
}
