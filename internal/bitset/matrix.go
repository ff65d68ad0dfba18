package bitset

import (
	"fmt"
	"math/bits"
)

// Matrix is a dense rows×cols bit matrix stored row-major in one
// contiguous word slice, each row padded to a whole number of 64-bit
// words. It backs the bit-parallel adjacency view of graph.Graph: row v
// holds the neighbour set of vertex v, so a word-wise AND of Row(v)
// against a broadcast bitset resolves 64 potential transmitters at once.
//
// Like Set, a Matrix is fixed-size and not safe for concurrent mutation;
// concurrent reads of a finished matrix are safe.
type Matrix struct {
	rows, cols int
	stride     int // words per row
	words      []uint64

	// Per-row nonzero word windows, maintained incrementally by Set (the
	// Matrix API has no per-bit clear, so the windows never shrink and
	// stay exact). rowHi[r] == 0 encodes an all-zero row. RowRange lets
	// windowed consumers skip a row's leading and trailing zero words.
	rowLo, rowHi []int32
}

// NewMatrix returns an all-zero bit matrix with the given dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 {
		rows = 0
	}
	if cols < 0 {
		cols = 0
	}
	stride := (cols + wordBits - 1) / wordBits
	m := &Matrix{
		rows:   rows,
		cols:   cols,
		stride: stride,
		words:  make([]uint64, rows*stride),
		rowLo:  make([]int32, rows),
		rowHi:  make([]int32, rows),
	}
	for r := range m.rowLo {
		m.rowLo[r] = int32(stride)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Stride returns the number of words per row.
func (m *Matrix) Stride() int { return m.stride }

// Set sets bit (r, c).
func (m *Matrix) Set(r, c int) {
	m.check(r, c)
	w := c / wordBits
	m.words[r*m.stride+w] |= 1 << (uint(c) % wordBits)
	if int32(w) < m.rowLo[r] {
		m.rowLo[r] = int32(w)
	}
	if int32(w+1) > m.rowHi[r] {
		m.rowHi[r] = int32(w + 1)
	}
}

// SetRow sets bit (r, c) for every c in cols, which must be ascending. It
// checks r and the first and last column once and widens the row's window
// once, from those two columns, where Set would do both per bit.
func (m *Matrix) SetRow(r int, cols []int32) {
	if len(cols) == 0 {
		return
	}
	first, last := int(cols[0]), int(cols[len(cols)-1])
	m.check(r, first)
	m.check(r, last)
	row := m.words[r*m.stride : (r+1)*m.stride]
	for _, c := range cols {
		row[c/wordBits] |= 1 << (uint32(c) % wordBits)
	}
	if lo := int32(first / wordBits); lo < m.rowLo[r] {
		m.rowLo[r] = lo
	}
	if hi := int32(last/wordBits + 1); hi > m.rowHi[r] {
		m.rowHi[r] = hi
	}
}

// Test reports whether bit (r, c) is set.
func (m *Matrix) Test(r, c int) bool {
	m.check(r, c)
	return m.words[r*m.stride+c/wordBits]&(1<<(uint(c)%wordBits)) != 0
}

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("bitset: matrix index (%d,%d) out of range %dx%d", r, c, m.rows, m.cols))
	}
}

// Row returns the backing words of row r. The slice aliases internal
// storage and must be treated as read-only by consumers that share the
// matrix; its length is Stride().
func (m *Matrix) Row(r int) []uint64 {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("bitset: matrix row %d out of range %d", r, m.rows))
	}
	return m.words[r*m.stride : (r+1)*m.stride : (r+1)*m.stride]
}

// RowRange returns the half-open word-index window [lo, hi) covering every
// nonzero word of row r: Row(r)[w] == 0 for all w outside it. An all-zero
// row yields (0, 0). The window is exact — Set maintains it and no per-bit
// clear exists — so a consumer intersecting row r against another windowed
// word vector only needs to scan the overlap of the two windows.
func (m *Matrix) RowRange(r int) (lo, hi int) {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("bitset: matrix row %d out of range %d", r, m.rows))
	}
	if m.rowHi[r] == 0 {
		return 0, 0
	}
	return int(m.rowLo[r]), int(m.rowHi[r])
}

// RowRanges exposes the per-row window bounds as parallel slices indexed
// by row: row r's window is [lo[r], hi[r]), with hi[r] == 0 encoding an
// all-zero row (whose lo[r] is Stride(), so clamping against any other
// window yields an empty overlap without a special case). The slices alias
// internal storage and must be treated as read-only; they exist so
// per-row hot loops (the dense radio engine) avoid a method call per row.
func (m *Matrix) RowRanges() (lo, hi []int32) { return m.rowLo, m.rowHi }

// Words exposes the backing row-major word storage: row r occupies words
// [r*Stride(), (r+1)*Stride()). The slice aliases internal storage and
// must be treated as read-only; it exists so hot loops over many rows can
// index directly instead of materialising a sub-slice per row.
func (m *Matrix) Words() []uint64 { return m.words }

// RowCount returns the number of set bits in row r.
func (m *Matrix) RowCount(r int) int {
	c := 0
	for _, w := range m.Row(r) {
		c += bits.OnesCount64(w)
	}
	return c
}
