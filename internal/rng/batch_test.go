package rng

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// maskByDraws is the per-call loop Bernoulli.Mask replaces: one Draw per
// set bit of w in ascending bit order, collecting the true ones.
func maskByDraws(b Bernoulli, r *Stream, w uint64) uint64 {
	var out uint64
	for ; w != 0; w &= w - 1 {
		if b.Draw(r) {
			out |= w & -w
		}
	}
	return out
}

// positionsByDraws is the per-call loop Geometric.Positions replaces: a
// walk from −1 stepping one Draw at a time, collecting every landing in
// [0, n), ending with the draw that steps past n − 1.
func positionsByDraws(g Geometric, r *Stream, n int, dst []int32) []int32 {
	for pos := -1; ; {
		k := g.Draw(r)
		if k > n-1-pos {
			return dst
		}
		pos += k
		dst = append(dst, int32(pos))
	}
}

// checkMask requires Mask to decide w's bits as the per-call loop does
// and to leave its stream where the loop leaves its own.
func checkMask(t *testing.T, p float64, seed, w uint64) {
	t.Helper()
	b := NewBernoulli(p)
	ref, got := New(seed), New(seed)
	want := maskByDraws(b, ref, w)
	if m := b.Mask(got, w); m != want {
		t.Fatalf("p=%v w=%#x: Mask=%#x, Draw loop=%#x", p, w, m, want)
	}
	if *ref != *got {
		t.Fatalf("p=%v w=%#x: stream states diverged", p, w)
	}
}

// checkPositions requires Positions, called three times in a row on one
// stream and appending past a prefix, to select the positions the
// per-call loop selects and to leave its stream where the loop leaves
// its own after each call.
func checkPositions(t *testing.T, g Geometric, label string, seed uint64, n int) {
	t.Helper()
	ref, got := New(seed), New(seed)
	prefix := []int32{-7}
	for call := 0; call < 3; call++ {
		want := positionsByDraws(g, ref, n, slices.Clone(prefix))
		if pos := g.Positions(got, n, slices.Clone(prefix)); !slices.Equal(pos, want) {
			t.Fatalf("%s n=%d call %d: Positions=%v, Draw loop=%v", label, n, call, pos, want)
		}
		if *ref != *got {
			t.Fatalf("%s n=%d call %d: stream states diverged", label, n, call)
		}
	}
}

// TestBernoulliMaskMatchesDraw pins Mask to popcount(w) Draw calls over
// the package's probability grid — p = 0, p >= 1 and NaN included — for
// the empty word, single bits, the full word and random words.
func TestBernoulliMaskMatchesDraw(t *testing.T) {
	words := []uint64{0, 1, 1 << 31, 1 << 63, ^uint64(0), 0x8000000000000001}
	r := New(0x6d61736b)
	for range 8 {
		words = append(words, r.Uint64(), r.Uint64()&r.Uint64()&r.Uint64())
	}
	for _, p := range bernoulliGrid() {
		for i, w := range words {
			checkMask(t, p, uint64(i), w)
		}
	}
}

// TestGeometricPositionsMatchesDraw pins Positions to the per-call walk
// at every tabled 2^-e, at untabled p (0.3, 2^-7 and 0.001), at p = 1
// and for the zero value, over walks from empty to long: n = 0 still
// draws the one gap that overshoots.
func TestGeometricPositionsMatchesDraw(t *testing.T) {
	type sampler struct {
		label string
		g     Geometric
	}
	samplers := []sampler{{"p=0.3", NewGeometric(0.3)}, {"p=2^-7", NewGeometric(0x1p-7)}, {"p=0.001", NewGeometric(0.001)}, {"p=1", NewGeometric(1)}, {"zero value", Geometric{}}}
	for e := 1; e <= len(geomTables); e++ {
		samplers = append(samplers, sampler{fmt.Sprintf("p=2^-%d", e), NewGeometric(math.Ldexp(1, -e))})
	}
	for _, s := range samplers {
		for _, n := range []int{0, 1, 63, 64, 1000} {
			checkPositions(t, s.g, s.label, uint64(n)+0x706f73, n)
		}
	}
	// At n = 0 the walk still draws the one gap that overshoots.
	r := New(5)
	before := *r
	if pos := NewGeometric(0.5).Positions(r, 0, nil); len(pos) != 0 {
		t.Fatalf("Positions at n=0 = %v, want none", pos)
	}
	before.Uint64()
	if *r != before {
		t.Fatal("Positions at n=0 did not consume exactly one draw")
	}
	// A walk past int32 would wrap its positions, so it is refused before
	// anything is drawn.
	defer func() {
		if recover() == nil {
			t.Fatal("Positions with n past int32 did not panic")
		}
	}()
	NewGeometric(1).Positions(r, math.MaxInt32+1, nil)
}

// FuzzBatchSamplers holds both batch samplers to their per-call loops at
// any seed, probability, word and walk length. p outside (0, 1] tests
// the zero-value Geometric, which NewGeometric cannot build.
func FuzzBatchSamplers(f *testing.F) {
	for i, p := range []float64{0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0x1p-7, 0.3, 0.001, 1, 0, math.NaN(), 1.5} {
		for _, c := range []struct {
			w uint64
			n uint16
		}{{0, 0}, {1, 1}, {1 << 63, 63}, {^uint64(0), 64}, {0x5a5a5a5a5a5a5a5a, 1000}} {
			f.Add(uint64(i), p, c.w, c.n)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, p float64, w uint64, n uint16) {
		checkMask(t, p, seed, w)
		g, label := Geometric{}, "zero value"
		if p > 0 && p <= 1 {
			g, label = NewGeometric(p), fmt.Sprintf("p=%v", p)
		}
		checkPositions(t, g, label, seed, int(n))
	})
}

// BenchmarkBernoulliMask times one full word of receiver-fault coins at
// the p the engine microbench rows use; compare BenchmarkBernoulliDraw
// times 64.
func BenchmarkBernoulliMask(b *testing.B) {
	r := New(1)
	coin := NewBernoulli(0.3)
	var sink uint64
	for b.Loop() {
		sink ^= coin.Mask(r, ^uint64(0))
	}
	maskSink = sink
}

var maskSink uint64

// BenchmarkGeometricPositions times one Decay round's picks over 1024
// informed nodes and over 10⁵, the size of large-n's lists: at tabled
// powers of two, among them 1/64, the one whose draws most often (37%)
// pass the table's last cut, at the first untabled one and off-table.
func BenchmarkGeometricPositions(b *testing.B) {
	for _, n := range []int{1024, 100000} {
		for _, p := range []float64{0.5, 0.125, 0x1p-6, 0x1p-7, 0.001} {
			b.Run(fmt.Sprintf("n=%d/p=%g", n, p), func(b *testing.B) {
				r := New(1)
				g := NewGeometric(p)
				var dst []int32
				for b.Loop() {
					dst = g.Positions(r, n, dst[:0])
				}
				geometricSink = len(dst)
			})
		}
	}
}
