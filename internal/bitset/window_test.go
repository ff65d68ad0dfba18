package bitset

import "testing"

func TestNonzeroRange(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		bits   []int
		lo, hi int
	}{
		{"empty-zero-len", 0, nil, 0, 0},
		{"empty-one-word", 50, nil, 0, 0},
		{"empty-many-words", 300, nil, 0, 0},
		{"single-word-set", 40, []int{3, 17}, 0, 1},
		{"first-word-only", 300, []int{0, 63}, 0, 1},
		{"last-word-only", 300, []int{299}, 4, 5},
		{"middle-word", 300, []int{130}, 2, 3},
		{"boundary-63-64", 300, []int{63, 64}, 0, 2},
		{"spanning", 300, []int{5, 299}, 0, 5},
		{"full", 129, []int{0, 64, 128}, 0, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(c.n)
			for _, b := range c.bits {
				s.Set(b)
			}
			lo, hi := s.NonzeroRange()
			if lo != c.lo || hi != c.hi {
				t.Fatalf("NonzeroRange() = [%d,%d), want [%d,%d)", lo, hi, c.lo, c.hi)
			}
			// The window's defining property: zero outside, nonzero ends.
			for w, word := range s.Words() {
				if (w < lo || w >= hi) && word != 0 {
					t.Fatalf("word %d nonzero outside window [%d,%d)", w, lo, hi)
				}
			}
			if lo < hi && (s.Words()[lo] == 0 || s.Words()[hi-1] == 0) {
				t.Fatalf("window [%d,%d) has zero end word", lo, hi)
			}
		})
	}
}

func TestNonzeroRangeAfterClear(t *testing.T) {
	s := New(200)
	s.Set(70)
	s.Set(190)
	s.Clear(190)
	if lo, hi := s.NonzeroRange(); lo != 1 || hi != 2 {
		t.Fatalf("NonzeroRange after clear = [%d,%d), want [1,2)", lo, hi)
	}
	s.Clear(70)
	if lo, hi := s.NonzeroRange(); lo != 0 || hi != 0 {
		t.Fatalf("NonzeroRange of emptied set = [%d,%d), want [0,0)", lo, hi)
	}
}

func TestResetWindow(t *testing.T) {
	s := New(300)
	s.Set(5)
	s.Set(70)
	s.Set(299)
	s.ResetWindow(1, 2)
	if s.Test(70) || !s.Test(5) || !s.Test(299) {
		t.Fatalf("ResetWindow(1,2) cleared wrong bits: %v", s)
	}
	s.ResetWindow(-5, 99) // clamps to the full range
	if s.Count() != 0 {
		t.Fatalf("clamped full-range ResetWindow left %v", s)
	}
	s.Set(64)
	lo, hi := s.NonzeroRange()
	s.ResetWindow(lo, hi)
	if s.Count() != 0 {
		t.Fatalf("ResetWindow over NonzeroRange left %v", s)
	}
}

func TestMatrixRowRange(t *testing.T) {
	m := NewMatrix(4, 300)
	if lo, hi := m.RowRange(0); lo != 0 || hi != 0 {
		t.Fatalf("all-zero row range = [%d,%d), want [0,0)", lo, hi)
	}
	m.Set(0, 5) // single word
	if lo, hi := m.RowRange(0); lo != 0 || hi != 1 {
		t.Fatalf("row 0 range = [%d,%d), want [0,1)", lo, hi)
	}
	m.Set(1, 299) // last word only
	if lo, hi := m.RowRange(1); lo != 4 || hi != 5 {
		t.Fatalf("row 1 range = [%d,%d), want [4,5)", lo, hi)
	}
	m.Set(2, 64) // boundary word
	m.Set(2, 63)
	if lo, hi := m.RowRange(2); lo != 0 || hi != 2 {
		t.Fatalf("row 2 range = [%d,%d), want [0,2)", lo, hi)
	}
	m.Set(3, 130)
	m.Set(3, 70)
	if lo, hi := m.RowRange(3); lo != 1 || hi != 3 {
		t.Fatalf("row 3 range = [%d,%d), want [1,3)", lo, hi)
	}
	// Windows only widen; re-setting an interior bit changes nothing.
	m.Set(3, 100)
	if lo, hi := m.RowRange(3); lo != 1 || hi != 3 {
		t.Fatalf("row 3 range after interior set = [%d,%d), want [1,3)", lo, hi)
	}
	// Defining property: zero words outside every row's window.
	for r := 0; r < m.Rows(); r++ {
		lo, hi := m.RowRange(r)
		for w, word := range m.Row(r) {
			if (w < lo || w >= hi) && word != 0 {
				t.Fatalf("row %d word %d nonzero outside window [%d,%d)", r, w, lo, hi)
			}
		}
	}
}

func TestMatrixRowRangeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range row")
		}
	}()
	NewMatrix(2, 10).RowRange(2)
}
