package rng

import (
	"math"
	"math/bits"
	"testing"
)

// geometricGrid returns the probabilities the equivalence tests sweep: the
// in-domain subset of the Bernoulli grid idea — a dense uniform grid over
// (0,1], the p=1 boundary, the subnormal neighbourhood, exact powers of two,
// and one-ulp perturbations around all of them (clamped to the domain).
func geometricGrid() []float64 {
	ps := []float64{
		1,
		math.SmallestNonzeroFloat64,
		2 * math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1074, 0x1p-1022, math.Nextafter(0x1p-1022, 0), // smallest normal and largest subnormal
		0x1p-53, 0x1p-52, 0x1p-24, 1 - 0x1p-53, 1 - 0x1p-52,
	}
	for i := 1; i <= 1000; i++ {
		ps = append(ps, float64(i)/1000)
	}
	for e := 1; e <= 60; e++ {
		ps = append(ps, math.Exp2(-float64(e)))
	}
	// One-ulp perturbations in both directions around everything so far,
	// keeping only values inside (0, 1].
	out := ps[:len(ps):len(ps)]
	for _, p := range ps {
		for _, q := range []float64{math.Nextafter(p, 2), math.Nextafter(p, -1)} {
			if q > 0 && q <= 1 {
				out = append(out, q)
			}
		}
	}
	return out
}

// TestGeometricMatchesStream is the draw-contract proof: for every grid
// probability, Geometric.Draw and Stream.Geometric produce identical values
// AND leave the stream at identical positions, draw by draw.
func TestGeometricMatchesStream(t *testing.T) {
	for _, p := range geometricGrid() {
		g := NewGeometric(p)
		methodStream := New(0x6e0)
		samplerStream := New(0x6e0)
		for i := 0; i < 64; i++ {
			want := methodStream.Geometric(p)
			got := g.Draw(samplerStream)
			if got != want {
				t.Fatalf("p=%v draw %d: Geometric sampler=%d, method=%d", p, i, got, want)
			}
			// Stream positions must agree after every draw (one Uint64 for
			// p in (0,1), none at p == 1); comparing the full generator
			// state is stricter than comparing one output.
			if *methodStream != *samplerStream {
				t.Fatalf("p=%v draw %d: stream states diverged", p, i)
			}
		}
	}
}

// TestGeometricSamplerOne: p == 1 always returns 1 without consuming randomness,
// exactly like the method.
func TestGeometricSamplerOne(t *testing.T) {
	g := NewGeometric(1)
	r := New(1)
	before := *r
	if got := g.Draw(r); got != 1 {
		t.Fatalf("Draw(p=1) = %d, want 1", got)
	}
	if *r != before {
		t.Fatal("Geometric(p=1) consumed randomness")
	}
}

// TestGeometricSamplerZeroValue: the zero value never succeeds and consumes
// nothing.
func TestGeometricSamplerZeroValue(t *testing.T) {
	var g Geometric
	r := New(1)
	before := *r
	if got := g.Draw(r); got != math.MaxInt {
		t.Fatalf("zero-value Draw = %d, want math.MaxInt", got)
	}
	if *r != before {
		t.Fatal("zero-value Geometric consumed randomness")
	}
}

// TestGeometricSamplerDomainPanics pins the constructor's domain to the method's:
// p outside (0,1] — including NaN, which slips past p <= 0 — must panic.
func TestGeometricSamplerDomainPanics(t *testing.T) {
	for _, p := range []float64{0, -0.25, 1.25, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGeometric(%v) did not panic", p)
				}
			}()
			NewGeometric(p)
		}()
	}
}

// TestGeometricSamplerMinimumOne: samples never fall below 1 even at p values
// where the inverse-CDF ratio rounds to 0.
func TestGeometricSamplerMinimumOne(t *testing.T) {
	for _, p := range []float64{1 - 0x1p-53, 0.999, 0.5} {
		g := NewGeometric(p)
		r := New(7)
		for i := 0; i < 4096; i++ {
			if k := g.Draw(r); k < 1 {
				t.Fatalf("p=%v: Draw = %d < 1", p, k)
			}
		}
	}
}

// TestGeometricBeyondIntRange: at p below about 2^-58 the inverse CDF
// can pass 2^63, and there Draw and Stream.Geometric must answer
// math.MaxInt rather than convert out of int's range, which amd64 turned
// into a success at the first trial. j = 2^53-1 gives the largest
// quotient, ln(2^53)/p, past 2^63 at every p here; the random draws are
// each 1 with probability p.
func TestGeometricBeyondIntRange(t *testing.T) {
	for _, p := range []float64{0x1p-60, 0x1p-61, 0x1p-62, 1e-18} {
		g := NewGeometric(p)
		if got, want := drawAt(g, p, 1<<53-1); got != math.MaxInt || want != math.MaxInt {
			t.Errorf("p=%v at j=2^53-1: Draw %d, Stream.Geometric %d, want math.MaxInt", p, got, want)
		}
		r, s := New(0x62), New(0x62)
		for i := 0; i < 100000; i++ {
			if k, m := g.Draw(r), s.Geometric(p); k < 2 || m < 2 {
				t.Fatalf("p=%v draw %d: Draw %d, Stream.Geometric %d; a success this early has probability p", p, i, k, m)
			}
		}
	}
}

// streamYielding returns a stream whose next Uint64 is x. xoshiro256**
// outputs rotl(s[1]·5, 7)·9, and 5 and 9 are invertible mod 2^64, so s[1]
// can be solved for. The tests below use it to feed one chosen j =
// x>>11 to both the sampler and the method.
func streamYielding(x uint64) *Stream {
	const inv5, inv9 = 0xcccccccccccccccd, 0x8e38e38e38e38e39
	return &Stream{s: [4]uint64{1: bits.RotateLeft64(x*inv9, -7) * inv5}}
}

// drawAt returns g's sample and Stream.Geometric(p)'s at the 53-bit
// integer j, each from its own stream positioned to yield j.
func drawAt(g Geometric, p float64, j uint64) (got, want int) {
	return g.Draw(streamYielding(j << 11)), streamYielding(j << 11).Geometric(p)
}

// TestGeometricTableThresholds proves each threshold table equal to the
// formula ceil(log1p(-u)/log1p(-p)) that Stream.Geometric evaluates. It
// checks every lattice point j within ±window of every cut, and random j
// in between.
//
// Why the window suffices: write Q(j) for the exact quotient at u =
// j·2^-53 and x = Q·|log1p(-p)|. One lattice step moves Q by 2^-53 /
// ((1-u)·|log1p(-p)|) = 2^-53·e^x / |log1p(-p)|, and an ulp of Q is at most
// Q·2^-52, so one step is at least e^x/(2x) ≥ e/2 ≈ 1.36 ulps of Q, for
// every p and every j. log1p is accurate to better than 1 ulp and the
// division adds half an ulp, so the computed quotient is within a few ulps
// of Q. Its ceiling can therefore differ from the exact ceiling only at
// the few lattice points next to where Q crosses an integer. Elsewhere the
// formula is the exact, non-decreasing step function, which a table of
// its crossings reproduces. The bisection that builds each cut lands on
// such a crossing, so every j where table and formula could disagree lies
// inside a window.
func TestGeometricTableThresholds(t *testing.T) {
	const window = 5000
	random := 1 << 20
	if testing.Short() {
		random = 1 << 14
	}
	for e := 1; e <= len(geomTables); e++ {
		p := math.Ldexp(1, -e)
		g := NewGeometric(p)
		if g.tab != &geomTables[e-1] || g.logq != math.Log1p(-p) {
			t.Fatalf("NewGeometric(2^-%d) does not use its table", e)
		}
		check := func(j uint64) {
			if got, want := drawAt(g, p, j); got != want {
				t.Fatalf("p=2^-%d j=%d: table %d, formula %d", e, j, got, want)
			}
		}
		prev := ^uint64(0)
		for _, c := range g.tab.cut {
			if c == prev {
				continue
			}
			prev = c
			for j := c - min(c, window); j < min(c+window, 1<<53); j++ {
				check(j)
			}
		}
		r := New(uint64(e))
		for range random {
			check(r.Uint64() >> 11)
		}
	}
}

// bucketEdges returns the first and the last j of guide bucket b.
func bucketEdges(b int) (first, last uint64) {
	first = uint64(b) << (53 - guideBits)
	return first, first + 1<<(53-guideBits) - 1
}

// TestGeometricGuideTable checks every guide bucket of every table: its
// entry is the formula's value at the bucket's first j (65, one past the
// cuts, once that value passes 64), and lookup answers with the formula's
// value at the bucket's first and last j, deferring to the formula
// exactly at and past the last cut. Together with the windows of
// TestGeometricTableThresholds this pins the count from a guide entry
// where it starts and wherever it steps past a cut.
func TestGeometricGuideTable(t *testing.T) {
	for e := 1; e <= len(geomTables); e++ {
		tab := &geomTables[e-1]
		last := tab.cut[len(tab.cut)-1]
		for b, k := range tab.guide {
			first, end := bucketEdges(b)
			if want := min(geometricInverse(first, tab.logq), len(tab.cut)+1); int(k) != want {
				t.Fatalf("p=2^-%d bucket %d: guide %d, formula at its first j %d", e, b, k, want)
			}
			for _, j := range []uint64{first, end} {
				got, ok := tab.lookup(j)
				if ok != (j < last) {
					t.Fatalf("p=2^-%d j=%d: lookup ok=%v, last cut %d", e, j, ok, last)
				}
				if want := geometricInverse(j, tab.logq); ok && got != want {
					t.Fatalf("p=2^-%d bucket %d j=%d: lookup %d, formula %d", e, b, j, got, want)
				}
			}
		}
	}
	// The empty table untabled p point at defers every j to the formula.
	for _, j := range []uint64{0, 1 << 52, 1<<53 - 1} {
		if k, ok := untabled.lookup(j); ok {
			t.Fatalf("untabled lookup at j=%d answered %d", j, k)
		}
	}
}

// FuzzGeometricTable compares the tabled sampler with the formula at any
// 53-bit j and any tabled exponent. The seeds hold each table's ends and
// first and last cut, then both ends of the guide buckets holding its
// first, middle and last cut, where lookup counts up past a cut. A fixed
// number of bucket seeds keeps the seed list independent of guideBits;
// TestGeometricGuideTable checks the ends of every bucket.
func FuzzGeometricTable(f *testing.F) {
	for i, t := range geomTables {
		c := t.cut
		for _, j := range []uint64{0, c[0] - 1, c[0], c[len(c)-1] - 1, 1<<53 - 1} {
			f.Add(j, uint8(i))
		}
	}
	for i, t := range geomTables {
		for _, c := range []uint64{t.cut[0], t.cut[len(t.cut)/2], t.cut[len(t.cut)-1]} {
			first, last := bucketEdges(int(min(c, 1<<53-1) >> (53 - guideBits)))
			f.Add(first, uint8(i))
			f.Add(last, uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, j uint64, i uint8) {
		j &= 1<<53 - 1
		e := 1 + int(i)%len(geomTables)
		p := math.Ldexp(1, -e)
		if got, want := drawAt(NewGeometric(p), p, j); got != want {
			t.Fatalf("p=2^-%d j=%d: table %d, formula %d", e, j, got, want)
		}
	})
}

func BenchmarkStreamGeometric(b *testing.B) {
	r := New(1)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink = r.Geometric(0.001)
	}
	_ = sink
}

// BenchmarkGeometricDraw times one skip draw at tabled powers of two, at
// the first untabled one, and at the off-table p the geomskip gate uses.
func BenchmarkGeometricDraw(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    float64
	}{{"p=1/2", 0.5}, {"p=1/4", 0.25}, {"p=1/8", 0.125}, {"p=1/16", 0.0625}, {"p=1/128", 0x1p-7}, {"p=0.001", 0.001}} {
		b.Run(bc.name, func(b *testing.B) {
			r := New(1)
			g := NewGeometric(bc.p)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += g.Draw(r)
			}
			geometricSink = sink
		})
	}
}

var geometricSink int
