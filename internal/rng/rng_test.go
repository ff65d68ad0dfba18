package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 outputs", same)
	}
}

func TestNewFromIndependence(t *testing.T) {
	a := NewFrom(7, 0)
	b := NewFrom(7, 1)
	c := NewFrom(7, 0)
	for i := 0; i < 100; i++ {
		av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
		if av != cv {
			t.Fatalf("NewFrom not deterministic at step %d", i)
		}
		if av == bv {
			t.Fatalf("NewFrom streams 0 and 1 collided at step %d", i)
		}
	}
}

func TestSplitDiverges(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	for i := 0; i < 50; i++ {
		if parent.Uint64() == child.Uint64() {
			t.Fatalf("parent and split child matched at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(6)
	const trials = 100000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += r.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(7)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(8)
	const trials = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < trials; i++ {
			if r.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bool(%v) frequency = %v", p, got)
		}
	}
}

func TestIntnBoundsAndUniformity(t *testing.T) {
	r := New(9)
	const n = 10
	counts := make([]int, n)
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		counts[v]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("Intn(%d): value %d occurred %d times, want ~%v", n, v, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnOne(t *testing.T) {
	r := New(2)
	for i := 0; i < 100; i++ {
		if got := r.Intn(1); got != 0 {
			t.Fatalf("Intn(1) = %d, want 0", got)
		}
	}
}

func TestMul64(t *testing.T) {
	tests := []struct {
		a, b   uint64
		hi, lo uint64
	}{
		{a: 0, b: 0, hi: 0, lo: 0},
		{a: 1, b: 1, hi: 0, lo: 1},
		{a: math.MaxUint64, b: 2, hi: 1, lo: math.MaxUint64 - 1},
		{a: 1 << 32, b: 1 << 32, hi: 1, lo: 0},
		{a: math.MaxUint64, b: math.MaxUint64, hi: math.MaxUint64 - 1, lo: 1},
	}
	for _, tt := range tests {
		hi, lo := mul64(tt.a, tt.b)
		if hi != tt.hi || lo != tt.lo {
			t.Errorf("mul64(%d, %d) = (%d, %d), want (%d, %d)", tt.a, tt.b, hi, lo, tt.hi, tt.lo)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(12)
	const trials = 200000
	for _, p := range []float64{0.5, 0.25, 0.9} {
		sum := 0
		for i := 0; i < trials; i++ {
			v := r.Geometric(p)
			if v < 1 {
				t.Fatalf("Geometric(%v) = %d < 1", p, v)
			}
			sum += v
		}
		mean := float64(sum) / trials
		want := 1 / p
		if math.Abs(mean-want) > want*0.05 {
			t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
		}
	}
}

func TestGeometricOne(t *testing.T) {
	r := New(13)
	for i := 0; i < 100; i++ {
		if got := r.Geometric(1); got != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", got)
		}
	}
}

// TestGeometricPanics: p outside (0, 1] panics, NaN and both infinities
// included. NaN fails every comparison, so the check must refuse any p
// for which p > 0 does not hold.
func TestGeometricPanics(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) did not panic", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

func TestSampleK(t *testing.T) {
	r := New(14)
	tests := []struct {
		n, k int
	}{
		{n: 10, k: 0},
		{n: 10, k: 1},
		{n: 10, k: 10},
		{n: 100, k: 7},
		{n: 1000, k: 50},
	}
	for _, tt := range tests {
		s := r.SampleK(tt.n, tt.k)
		if len(s) != tt.k {
			t.Fatalf("SampleK(%d,%d) len = %d", tt.n, tt.k, len(s))
		}
		for i, v := range s {
			if v < 0 || v >= tt.n {
				t.Fatalf("SampleK(%d,%d) element %d out of range", tt.n, tt.k, v)
			}
			if i > 0 && s[i-1] >= v {
				t.Fatalf("SampleK(%d,%d) = %v not strictly ascending", tt.n, tt.k, s)
			}
		}
	}
}

func TestSampleKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleK(2,3) did not panic")
		}
	}()
	New(1).SampleK(2, 3)
}

func TestBytesDeterministicAndCovering(t *testing.T) {
	a := New(21)
	b := New(21)
	bufA := make([]byte, 37)
	bufB := make([]byte, 37)
	a.Bytes(bufA)
	b.Bytes(bufB)
	for i := range bufA {
		if bufA[i] != bufB[i] {
			t.Fatalf("Bytes not deterministic at %d", i)
		}
	}
	// Statistical: all byte values appear over a large buffer.
	big := make([]byte, 1<<16)
	New(22).Bytes(big)
	var seen [256]bool
	for _, v := range big {
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("byte value %d never produced in 64KiB", v)
		}
	}
}

// Property: Intn(n) is always within range for arbitrary n and seeds.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SampleK always yields k distinct in-range ascending values.
func TestQuickSampleK(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%200 + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).SampleK(n, k)
		if len(s) != k {
			return false
		}
		for i, v := range s {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && s[i-1] >= v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
