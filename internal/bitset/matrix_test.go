package bitset

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestMatrixSetTest(t *testing.T) {
	m := NewMatrix(3, 130) // forces a 3-word stride with a partial last word
	if m.Rows() != 3 || m.Cols() != 130 || m.Stride() != 3 {
		t.Fatalf("dims = %d x %d stride %d", m.Rows(), m.Cols(), m.Stride())
	}
	coords := [][2]int{{0, 0}, {0, 63}, {1, 64}, {2, 129}, {1, 1}}
	for _, rc := range coords {
		m.Set(rc[0], rc[1])
	}
	for _, rc := range coords {
		if !m.Test(rc[0], rc[1]) {
			t.Fatalf("bit (%d,%d) not set", rc[0], rc[1])
		}
	}
	if m.Test(0, 1) || m.Test(2, 0) {
		t.Fatal("unexpected bit set")
	}
	if got := m.RowCount(0); got != 2 {
		t.Fatalf("RowCount(0) = %d, want 2", got)
	}
}

func TestMatrixRowAliasesStorage(t *testing.T) {
	m := NewMatrix(2, 64)
	m.Set(1, 3)
	row := m.Row(1)
	if len(row) != 1 || row[0] != 1<<3 {
		t.Fatalf("Row(1) = %x", row)
	}
	if got := m.Row(0)[0]; got != 0 {
		t.Fatalf("Row(0) = %x, want 0", got)
	}
}

func TestMatrixOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 10)
	for _, fn := range []func(){
		func() { m.Set(2, 0) },
		func() { m.Set(0, 10) },
		func() { m.Test(-1, 0) },
		func() { m.Row(2) },
		func() { m.SetRow(2, []int32{0}) },
		func() { m.SetRow(0, []int32{-1, 3}) },
		func() { m.SetRow(0, []int32{3, 10}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on out-of-range access")
				}
			}()
			fn()
		}()
	}
}

// Property: SetRow of an ascending column list leaves the words and row
// windows that one Set per column leaves, on rows that already hold bits
// on either side of the list.
func TestQuickMatrixSetRowMatchesSet(t *testing.T) {
	f := func(before, cols []uint16) bool {
		const n = 300
		want, got := NewMatrix(2, n), NewMatrix(2, n)
		for _, c := range before {
			want.Set(1, int(c)%n)
			got.Set(1, int(c)%n)
		}
		list := make([]int32, 0, len(cols))
		for _, c := range cols {
			list = append(list, int32(c)%n)
		}
		slices.Sort(list)
		for _, c := range list {
			want.Set(1, int(c))
		}
		got.SetRow(1, list)
		wantLo, wantHi := want.RowRanges()
		gotLo, gotHi := got.RowRanges()
		return slices.Equal(got.Words(), want.Words()) && slices.Equal(gotLo, wantLo) && slices.Equal(gotHi, wantHi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a row's words ANDed against a set's words count the same
// intersection as the naive per-bit check — the exact operation the dense
// radio engine performs.
func TestQuickMatrixRowAndSetWordsMatchNaive(t *testing.T) {
	f := func(rowBits, setBits []uint16) bool {
		const n = 300
		m := NewMatrix(1, n)
		s := New(n)
		for _, b := range rowBits {
			m.Set(0, int(b)%n)
		}
		for _, b := range setBits {
			s.Set(int(b) % n)
		}
		want := 0
		for i := 0; i < n; i++ {
			if m.Test(0, i) && s.Test(i) {
				want++
			}
		}
		got := 0
		row := m.Row(0)
		for i, w := range s.Words() {
			got += bits.OnesCount64(row[i] & w)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSetWords(t *testing.T) {
	s := New(70)
	s.Set(0)
	s.Set(69)
	w := s.Words()
	if len(w) != 2 || w[0] != 1 || w[1] != 1<<5 {
		t.Fatalf("Words() = %x", w)
	}
}
