package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	if Add(0x53, 0xCA) != 0x53^0xCA {
		t.Fatal("Add is not XOR")
	}
	if Sub(0x53, 0xCA) != Add(0x53, 0xCA) {
		t.Fatal("Sub differs from Add in characteristic 2")
	}
}

func TestMulKnownValues(t *testing.T) {
	// Known products under polynomial 0x11D.
	tests := []struct {
		a, b, want byte
	}{
		{a: 0, b: 5, want: 0},
		{a: 7, b: 0, want: 0},
		{a: 1, b: 0xAB, want: 0xAB},
		{a: 2, b: 2, want: 4},
		{a: 0x80, b: 2, want: 0x1D}, // wraps through the reduction polynomial
		{a: 3, b: 7, want: 9},       // (x+1)(x^2+x+1) = x^3+1
	}
	for _, tt := range tests {
		if got := Mul(tt.a, tt.b); got != tt.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestMulMatchesSlow(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if Mul(byte(a), byte(b)) != mulSlow(byte(a), byte(b)) {
				t.Fatalf("Mul(%d,%d) != mulSlow", a, b)
			}
		}
	}
}

func TestInvAndDiv(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("a * Inv(a) != 1 for a=%d", a)
		}
		if Div(1, byte(a)) != inv {
			t.Fatalf("Div(1,a) != Inv(a) for a=%d", a)
		}
	}
	if Div(0, 7) != 0 {
		t.Fatal("Div(0, b) != 0")
	}
}

func TestDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(1, 0)
}

func TestInvPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpGeneratorOrder(t *testing.T) {
	if Exp(0) != 1 {
		t.Fatal("Exp(0) != 1")
	}
	if Exp(255) != 1 {
		t.Fatal("generator order is not 255")
	}
	// Generator must hit every non-zero element exactly once in 255 steps.
	seen := make(map[byte]bool, 255)
	for e := 0; e < 255; e++ {
		v := Exp(e)
		if v == 0 || seen[v] {
			t.Fatalf("Exp(%d) = %d repeats or is zero", e, v)
		}
		seen[v] = true
	}
}

func TestPow(t *testing.T) {
	if Pow(0, 0) != 1 {
		t.Fatal("Pow(0,0) != 1")
	}
	if Pow(0, 5) != 0 {
		t.Fatal("Pow(0,5) != 0")
	}
	for a := 1; a < 256; a += 17 {
		acc := byte(1)
		for e := 0; e < 10; e++ {
			if got := Pow(byte(a), e); got != acc {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, e, got, acc)
			}
			acc = Mul(acc, byte(a))
		}
	}
}

func TestMulVec(t *testing.T) {
	dst := []byte{1, 2, 3, 0}
	src := []byte{5, 0, 7, 9}
	want := make([]byte, 4)
	for i := range want {
		want[i] = dst[i] ^ Mul(3, src[i])
	}
	MulVec(dst, src, 3)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVec mismatch at %d: %d vs %d", i, dst[i], want[i])
		}
	}
}

func TestMulVecSpecialCoefficients(t *testing.T) {
	dst := []byte{1, 2, 3}
	orig := append([]byte(nil), dst...)
	MulVec(dst, []byte{9, 9, 9}, 0)
	for i := range dst {
		if dst[i] != orig[i] {
			t.Fatal("MulVec with c=0 modified dst")
		}
	}
	MulVec(dst, []byte{9, 9, 9}, 1)
	for i := range dst {
		if dst[i] != orig[i]^9 {
			t.Fatal("MulVec with c=1 is not plain XOR")
		}
	}
}

func TestMulVecLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	MulVec(make([]byte, 2), make([]byte, 3), 1)
}

func TestScaleVec(t *testing.T) {
	v := []byte{1, 2, 0, 255}
	want := make([]byte, len(v))
	for i := range v {
		want[i] = Mul(v[i], 7)
	}
	ScaleVec(v, 7)
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("ScaleVec mismatch at %d", i)
		}
	}
	zero := []byte{3, 4}
	ScaleVec(zero, 0)
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("ScaleVec with 0 did not zero")
	}
}

// Field axioms checked exhaustively-ish via quick.

func TestQuickMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c byte) bool {
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistributive(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDivInvertsMul(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Div(Mul(a, b), b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul(b *testing.B) {
	b.ReportAllocs()
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Mul(byte(i), byte(i>>8))
	}
	_ = acc
}

func BenchmarkMulVec(b *testing.B) {
	dst := make([]byte, 1024)
	src := make([]byte, 1024)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulVec(dst, src, byte(i|1))
	}
}
