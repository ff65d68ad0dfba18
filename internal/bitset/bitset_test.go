package bitset

import (
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	tests := []struct {
		name string
		n    int
	}{
		{name: "zero", n: 0},
		{name: "one", n: 1},
		{name: "word boundary", n: 64},
		{name: "word boundary plus one", n: 65},
		{name: "large", n: 1000},
		{name: "negative clamps to zero", n: -5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := New(tt.n)
			if tt.n < 0 {
				if s.Len() != 0 {
					t.Fatalf("Len() = %d, want 0", s.Len())
				}
				return
			}
			if s.Len() != tt.n {
				t.Fatalf("Len() = %d, want %d", s.Len(), tt.n)
			}
			if got := s.Count(); got != 0 {
				t.Fatalf("Count() = %d, want 0", got)
			}
		})
	}
}

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("Test(%d) = true before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("Test(%d) = false after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("Test(64) = true after Clear")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
	s.Reset()
	if got := s.Count(); got != 0 {
		t.Fatalf("Count() = %d after Reset, want 0", got)
	}
}

func TestSetIdempotent(t *testing.T) {
	s := New(10)
	s.Set(3)
	s.Set(3)
	if got := s.Count(); got != 1 {
		t.Fatalf("Count() after double Set = %d, want 1", got)
	}
}

func TestClone(t *testing.T) {
	a := New(80)
	a.Set(5)
	a.Set(79)
	b := a.Clone()
	if !b.Test(5) || !b.Test(79) || b.Count() != 2 {
		t.Fatalf("Clone mismatch: %v", b)
	}
	// Mutating the clone must not affect the original.
	b.Set(10)
	if a.Test(10) {
		t.Fatal("mutating clone affected original")
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(300)
	want := []int{0, 63, 64, 128, 255, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	s := New(10)
	if got := s.String(); got != "{}" {
		t.Fatalf("String() = %q, want {}", got)
	}
	s.Set(1)
	s.Set(7)
	if got := s.String(); got != "{1 7}" {
		t.Fatalf("String() = %q, want {1 7}", got)
	}
}

// Property: Count equals the number of distinct indices ever set (and not
// cleared), regardless of ordering.
func TestQuickCountMatchesMap(t *testing.T) {
	f := func(idxs []uint16) bool {
		const n = 1 << 16
		s := New(n)
		ref := make(map[int]bool)
		for _, x := range idxs {
			i := int(x)
			s.Set(i)
			ref[i] = true
		}
		if s.Count() != len(ref) {
			return false
		}
		for i := range ref {
			if !s.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetTest(b *testing.B) {
	s := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set(i & 0xffff)
		_ = s.Test(i & 0xffff)
	}
}

func BenchmarkCount(b *testing.B) {
	s := New(1 << 16)
	for i := 0; i < 1<<16; i += 3 {
		s.Set(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Count()
	}
}
