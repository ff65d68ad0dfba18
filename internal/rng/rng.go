// Package rng provides a small, fast, deterministic and splittable random
// number generator used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: a trial
// must produce identical results regardless of how many Monte-Carlo workers
// run concurrently. Each trial therefore owns an independent Stream derived
// deterministically from (experiment seed, trial index) via SplitMix64, and
// the per-trial simulation is single-threaded.
//
// The core generator is xoshiro256**, seeded through SplitMix64 as its
// authors recommend. Both algorithms are public domain (Blackman & Vigna).
package rng

import "math"

// Stream is a deterministic pseudo-random number stream.
// It is not safe for concurrent use; give each goroutine its own Stream.
type Stream struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for Split derivation.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream deterministically seeded from seed.
func New(seed uint64) *Stream {
	var st Stream
	sm := seed
	for i := range st.s {
		st.s[i] = splitMix64(&sm)
	}
	// xoshiro must not be seeded with the all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 1
	}
	return &st
}

// NewFrom returns a Stream derived from a (seed, index) pair. Distinct
// indices yield statistically independent streams; this is how per-trial and
// per-node streams are created.
func NewFrom(seed uint64, index uint64) *Stream {
	sm := seed
	base := splitMix64(&sm)
	sm2 := base ^ (index * 0xd1342543de82ef95)
	return New(splitMix64(&sm2))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	r.s[0], r.s[1], r.s[2], r.s[3] = next(r.s[0], r.s[1], r.s[2], r.s[3])
	return result
}

// next is xoshiro256**'s state transition. Uint64 applies it to the
// stream; the batch samplers (Bernoulli.Mask, Geometric.Positions) apply
// it to a state held in locals across many draws. The output of a state
// is rotl(s1·5, 7)·9, taken before the transition.
func next(s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64) {
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return s0, s1, s2, rotl(s3, 45)
}

// Split returns a new Stream derived from (and independent of) r.
// The parent stream advances by one output.
func (r *Stream) Split() *Stream {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Bernoulli is a fixed-probability coin with the float compare hoisted out
// of the draw: accepting u>>11 < ceil(p·2^53) is exactly equivalent to
// Float64() < p (both the 53-bit integer→float conversion and the
// power-of-two scaling are exact), so a sampler built once replaces a
// float multiply + compare per draw with one integer compare. Draw is
// bit-identical to Bool(p) — same decisions, same stream positions,
// including the no-consumption short-circuits at p <= 0 and p >= 1 —
// which the package tests verify over a dense probability grid.
//
// The zero value is a never-true coin that consumes no randomness.
type Bernoulli struct {
	thresh uint64
}

// Sentinel thresholds for the non-arithmetic coins. Unreachable as real
// thresholds: for p < 1 the largest is ceil((1-2^-53)·2^53) = 2^53 - 1.
const (
	bernoulliAlways = ^uint64(0)     // p >= 1: true, no draw
	bernoulliNaN    = ^uint64(0) - 1 // NaN: false, but one draw consumed
)

// NewBernoulli returns a sampler whose Draw is exactly Bool(p) — for NaN
// too, which slips through Bool's p<=0/p>=1 guards into the float compare
// (always false) and therefore burns a draw; converting it with
// uint64(math.Ceil(NaN·2^53)) instead would be implementation-defined.
func NewBernoulli(p float64) Bernoulli {
	switch {
	case math.IsNaN(p):
		return Bernoulli{thresh: bernoulliNaN}
	case p <= 0:
		return Bernoulli{}
	case p >= 1:
		return Bernoulli{thresh: bernoulliAlways}
	}
	return Bernoulli{thresh: uint64(math.Ceil(p * (1 << 53)))}
}

// Draw returns true with the sampler's probability, consuming exactly the
// randomness Bool would: one Uint64 for p in (0,1) or NaN, none otherwise.
func (b Bernoulli) Draw(r *Stream) bool {
	switch b.thresh {
	case 0:
		return false
	case bernoulliAlways:
		return true
	case bernoulliNaN:
		r.Uint64()
		return false
	}
	return r.Uint64()>>11 < b.thresh
}

// Mask draws one coin per set bit of w, in ascending bit order, and
// returns the bits whose coin came up true. It decides the same bits and
// leaves r at the same position as popcount(w) calls to Draw, but holds
// the generator state in locals across the word instead of loading and
// storing it per draw.
func (b Bernoulli) Mask(r *Stream, w uint64) uint64 {
	switch b.thresh {
	case 0:
		return 0
	case bernoulliAlways:
		return w
	case bernoulliNaN:
		for ; w != 0; w &= w - 1 {
			r.Uint64()
		}
		return 0
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var out uint64
	for ; w != 0; w &= w - 1 {
		x := rotl(s1*5, 7) * 9
		s0, s1, s2, s3 = next(s0, s1, s2, s3)
		// x>>11 and thresh are both below 2^63, so the difference has
		// its top bit set exactly when the coin is true.
		out |= w & -w & -((x>>11 - b.thresh) >> 63)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return out
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	w0 := t & mask32
	carry := t >> 32
	t = aHi*bLo + carry
	w1 := t & mask32
	w2 := t >> 32
	t = aLo*bHi + w1
	hi = aHi*bHi + w2 + t>>32
	lo = t<<32 + w0
	return hi, lo
}

// Byte returns a uniform random byte.
func (r *Stream) Byte() byte {
	return byte(r.Uint64())
}

// Bytes fills b with uniform random bytes.
func (r *Stream) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * uint(j)))
		}
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// Perm returns a uniform random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle applies a Fisher–Yates shuffle over n elements using swap.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of Bernoulli(p) trials up to and including the
// first success (support {1, 2, ...}). A sample past int's range, which
// p below about 2^-58 makes possible, is math.MaxInt: no success within
// any horizon. It panics if p is outside (0, 1].
func (r *Stream) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric with p outside (0,1]")
	}
	if p == 1 {
		return 1
	}
	return geometricInverse(r.Uint64()>>11, math.Log1p(-p))
}

// geometricInverse is the inverse CDF Stream.Geometric samples with:
// ceil(ln(1-u) / logq) at u = j·2^-53, the value Float64 makes of the
// 53-bit integer j, clamped to [1, math.MaxInt]. The upper clamp is
// explicit because Go leaves converting an out-of-range float to int to
// the platform: amd64 yields math.MinInt, a success at the first trial.
func geometricInverse(j uint64, logq float64) int {
	q := math.Ceil(math.Log1p(-float64(j)*0x1p-53) / logq)
	switch {
	case q >= math.MaxInt:
		return math.MaxInt
	case q < 1:
		return 1
	}
	return int(q)
}

// geomTables holds, for p = 2^-e with 1 <= e <= len(geomTables), log1p(-p)
// and the inverse CDF as thresholds on j: cut[i] is the smallest j whose
// geometricInverse value exceeds i+1, or 2^53 (no j) when none does. init
// fills the tables once, by bisection on geometricInverse itself, and
// nothing writes them afterwards. Decay's broadcast probabilities are
// powers of two, and half of its skip draws are at p = ½. The bound on e
// is where counting about 2^e thresholds per draw stops beating one log1p.
var geomTables [6]struct {
	logq float64
	cut  [64]uint64
}

func init() {
	for e := range geomTables {
		t := &geomTables[e]
		t.logq = math.Log1p(-math.Ldexp(1, -(e + 1)))
		lo := uint64(0)
		for i := range t.cut {
			// The formula is non-decreasing in j, so each cut lies at or
			// past the previous one.
			hi := uint64(1) << 53
			for lo < hi {
				if mid := lo + (hi-lo)/2; geometricInverse(mid, t.logq) > i+1 {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			t.cut[i] = lo
		}
	}
}

// Geometric is a fixed-probability skip sampler with the denominator
// hoisted out of the draw: it stores log1p(-p) once, so a Draw costs one
// Uint64 plus one log1p and one divide instead of recomputing log1p(-p).
// For p = 2^-e with e <= 6 neither NewGeometric nor a Draw whose sample
// is at most 64 computes a log1p: the Draw counts the thresholds of a
// precomputed table (see geomTables) that its 53-bit integer has reached.
// The table is a faster evaluation of the same inverse CDF, not a new
// one, and the formula answers past its end.
//
// Draw is bit-identical to Stream.Geometric(p) — same values, same stream
// positions — because the stored denominator is the exact float the method
// would compute and the division is performed identically (a precomputed
// reciprocal would round differently). The package tests verify this over
// a dense probability grid, and the tables against the formula at every j
// near each threshold.
//
// The zero value is a never-succeeding sampler: Draw returns math.MaxInt
// ("the next success is beyond any horizon") and consumes no randomness.
type Geometric struct {
	logq float64     // log1p(-p) for p in (0,1); 0 doubles as the zero-value sentinel
	cut  *[64]uint64 // the thresholds for p = 2^-e when tabled, else nil
	one  bool        // p == 1: every trial succeeds, no randomness needed
}

// NewGeometric returns a sampler whose Draw is exactly Stream.Geometric(p).
// Like the method, it rejects p outside (0, 1] — including NaN — by
// panicking, so a sampler in hand is always a usable one.
func NewGeometric(p float64) Geometric {
	if !(p > 0) || p > 1 {
		panic("rng: NewGeometric with p outside (0,1]")
	}
	if p == 1 {
		return Geometric{one: true}
	}
	if frac, exp := math.Frexp(p); frac == 0.5 && -exp < len(geomTables) {
		t := &geomTables[-exp] // p = 2^(exp-1)
		return Geometric{logq: t.logq, cut: &t.cut}
	}
	// log1p(-p) < 0 for every p in (0,1), down to the smallest subnormal,
	// so 0 is unreachable and safely marks the zero value.
	return Geometric{logq: math.Log1p(-p)}
}

// Draw returns a geometric sample (support {1, 2, ...}), consuming exactly
// the randomness Stream.Geometric would: one Uint64 for p in (0,1), none
// at p == 1. The zero value returns math.MaxInt without drawing.
func (g Geometric) Draw(r *Stream) int {
	if g.one {
		return 1
	}
	if g.logq == 0 {
		return math.MaxInt
	}
	return g.sample(r.Uint64() >> 11)
}

// sample is the inverse CDF at the 53-bit integer j: the table's count
// where p is tabled and j lies below its last cut, the formula otherwise.
func (g Geometric) sample(j uint64) int {
	if g.cut != nil {
		// 1 + #{i : cut[i] <= j} while j is below the last cut, found by
		// blocks of 8: one branch picks the block, whose other 7 cuts are
		// counted without a data-dependent branch.
		for b := 0; b < len(g.cut); b += 8 {
			if j < g.cut[b+7] {
				k := b + 1
				for _, c := range g.cut[b : b+7] {
					if c <= j {
						k++
					}
				}
				return k
			}
		}
	}
	return geometricInverse(j, g.logq)
}

// Positions appends to dst, in ascending order, the positions of [0, n)
// that a walk from −1 lands on when each step is one Draw — each position
// is then selected independently with the sampler's probability — and
// returns the extended slice. It consumes the stream exactly as that
// loop of Draw calls would, the final draw that steps past n − 1
// included, so even n <= 0 draws one gap; and it holds the generator
// state in locals across the walk instead of loading and storing it per
// draw. At p = 1 it appends every position without drawing; the zero
// value appends nothing and draws nothing. Positions are int32, the
// width of the node ids and lists they index, so half as many bytes
// hold a round's picks; it panics if n exceeds math.MaxInt32.
func (g Geometric) Positions(r *Stream, n int, dst []int32) []int32 {
	if n > math.MaxInt32 {
		panic("rng: Positions with n past int32")
	}
	if g.one {
		for pos := 0; pos < n; pos++ {
			dst = append(dst, int32(pos))
		}
		return dst
	}
	if g.logq == 0 {
		return dst
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for pos := -1; ; {
		j := rotl(s1*5, 7) * 9 >> 11
		s0, s1, s2, s3 = next(s0, s1, s2, s3)
		// Compare before adding: a gap of math.MaxInt, the formula's
		// "no success in range", must not wrap pos.
		k := g.sample(j)
		if k > n-1-pos {
			break
		}
		pos += k
		dst = append(dst, int32(pos))
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return dst
}

// SampleK returns k distinct uniform elements of [0, n) in ascending order.
// It panics if k > n or either argument is negative.
func (r *Stream) SampleK(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("rng: SampleK with invalid arguments")
	}
	// Floyd's algorithm; results collected then sorted by insertion since k
	// is typically small relative to n.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	insertionSort(out)
	return out
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
