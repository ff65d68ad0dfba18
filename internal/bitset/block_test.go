package bitset

import (
	"testing"

	"noisyradio/internal/rng"
)

func TestBlockLayoutTransposed(t *testing.T) {
	b := NewBlock(130, 3)
	if got := b.Stride(); got != 3 {
		t.Fatalf("Stride() = %d, want 3", got)
	}
	b.Set(0, 64) // lane 0, word 1, bit 0
	b.Set(2, 65) // lane 2, word 1, bit 1
	words := b.Words()
	if words[1*3+0] != 1 {
		t.Fatalf("lane 0 word 1 = %#x, want 1", words[1*3+0])
	}
	if words[1*3+2] != 2 {
		t.Fatalf("lane 2 word 1 = %#x, want 2", words[1*3+2])
	}
	for i, w := range words {
		if i != 3 && i != 5 && w != 0 {
			t.Fatalf("unexpected nonzero word at %d", i)
		}
	}
}

// Each lane of a Block must behave exactly like an independent Set: drive
// a random operation sequence against both representations and compare.
func TestBlockLanesMatchIndependentSets(t *testing.T) {
	const n, w = 200, 5
	r := rng.New(42)
	b := NewBlock(n, w)
	ref := make([]*Set, w)
	for l := range ref {
		ref[l] = New(n)
	}
	for op := 0; op < 4000; op++ {
		l := r.Intn(w)
		i := r.Intn(n)
		switch r.Intn(3) {
		case 0:
			b.Set(l, i)
			ref[l].Set(i)
		case 1:
			b.Clear(l, i)
			ref[l].Clear(i)
		case 2:
			if b.Test(l, i) != ref[l].Test(i) {
				t.Fatalf("Test(%d,%d) diverged", l, i)
			}
		}
	}
	for l := 0; l < w; l++ {
		lo, hi := b.LaneNonzeroRange(l)
		wantLo, wantHi := ref[l].NonzeroRange()
		if lo != wantLo || hi != wantHi {
			t.Fatalf("lane %d: NonzeroRange (%d,%d) != (%d,%d)", l, lo, hi, wantLo, wantHi)
		}
		for i := 0; i < n; i++ {
			if b.Test(l, i) != ref[l].Test(i) {
				t.Fatalf("lane %d: element %d diverged", l, i)
			}
		}
	}
}

func TestBlockLaneCopyRoundTrip(t *testing.T) {
	const n, w = 97, 4
	r := rng.New(7)
	b := NewBlock(n, w)
	for l := 0; l < w; l++ {
		s := New(n)
		for i := 0; i < n; i++ {
			if r.Bool(0.3) {
				s.Set(i)
			}
		}
		b.LaneCopyFrom(l, s)
		for i := 0; i < n; i++ {
			if b.Test(l, i) != s.Test(i) {
				t.Fatalf("lane %d element %d: copy diverged", l, i)
			}
		}
	}
}

func TestBlockResetLaneWindow(t *testing.T) {
	b := NewBlock(256, 2)
	for i := 0; i < 256; i++ {
		b.Set(0, i)
		b.Set(1, i)
	}
	lo, hi := b.LaneNonzeroRange(0)
	b.ResetLaneWindow(0, lo, hi)
	if lo, hi := b.LaneNonzeroRange(0); lo != hi {
		t.Fatal("lane 0 not cleared by its nonzero window")
	}
	for i := 0; i < 256; i++ {
		if !b.Test(1, i) {
			t.Fatalf("lane 1 disturbed at %d", i)
		}
	}
	// Out-of-range windows clamp.
	b.ResetLaneWindow(1, -5, 100)
	if lo, hi := b.LaneNonzeroRange(1); lo != hi {
		t.Fatal("lane 1 not cleared by clamped window")
	}
}

func TestNewBlockPanicsOnZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBlock(8, 0) did not panic")
		}
	}()
	NewBlock(8, 0)
}
