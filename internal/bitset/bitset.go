// Package bitset provides a dense, fixed-capacity bitset used by the radio
// simulator to track informed nodes, per-round broadcasters and reception
// reports. It is deliberately minimal: no dynamic growth, no concurrency —
// the simulator is single-threaded per trial.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-size set of integers in [0, Len()).
// The zero value is an empty set of length zero; use New for a usable set.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for n elements.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// Len returns the capacity of the set (the number of addressable bits).
func (s *Set) Len() int { return s.n }

// Set marks element i as present.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear marks element i as absent.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether element i is present.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of present elements.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears all elements.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ResetWindow clears every word in the word-index window [lo, hi),
// clamped to the set's word count. Paired with NonzeroRange it clears a
// mostly-empty set in O(nonzero words) instead of O(Len()/64) — the
// per-round clear of a frontier scheduler.
func (s *Set) ResetWindow(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.words) {
		hi = len(s.words)
	}
	for w := lo; w < hi; w++ {
		s.words[w] = 0
	}
}

// Clone returns a new independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// ForEach calls fn for every present element in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Words exposes the backing word slice: bit i of the set lives at bit
// i%64 of Words()[i/64]. It aliases internal storage and must be treated
// as read-only; it exists so word-parallel consumers (the dense radio
// engine) can AND rows against the set without copying. Bits at positions
// >= Len() in the last word are always zero.
func (s *Set) Words() []uint64 { return s.words }

// NonzeroRange returns the half-open word-index window [lo, hi) covering
// every nonzero word of the set: Words()[w] == 0 for all w outside it.
// An empty set yields (0, 0). Windowed consumers (the dense radio engine)
// use it to confine per-row intersection scans to the overlap of the
// broadcast set's window and an adjacency row's window.
func (s *Set) NonzeroRange() (lo, hi int) {
	for w := 0; w < len(s.words); w++ {
		if s.words[w] != 0 {
			lo = w
			for hi = len(s.words); s.words[hi-1] == 0; hi-- {
			}
			return lo, hi
		}
	}
	return 0, 0
}

// String renders the set as a compact element list, e.g. "{0 3 17}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
