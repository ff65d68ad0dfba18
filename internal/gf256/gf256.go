// Package gf256 implements arithmetic over the finite field GF(2^8) with the
// reduction polynomial x^8+x^4+x^3+x^2+1 (0x11D) conventional for
// Reed–Solomon codes. It backs the random linear network coding decoder
// (internal/rlnc). Addition is XOR, so the package exports only the
// multiplicative operations: Mul, Inv and the row operations MulVec and
// ScaleVec.
//
// Multiplication and inversion run through log/exp tables built once at
// package load; the construction is a deterministic pure computation.
package gf256

// poly is the reduction polynomial for GF(2^8), with the x^8 term implicit.
const poly = 0x1D

// generator is a primitive element of the field (x, i.e. 2).
const generator = 2

var (
	expTable [512]byte // doubled so Mul can skip a modular reduction of log sums
	logTable [256]byte
)

// Tables are a deterministic precomputation: the one legitimate init use.
func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		expTable[i+255] = x
		logTable[x] = byte(i)
		x = mulSlow(x, generator)
	}
	expTable[510] = expTable[0]
	expTable[511] = expTable[1]
}

// mulSlow is carry-less multiplication with reduction, used only to build
// the tables.
func mulSlow(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= poly
		}
		b >>= 1
	}
	return p
}

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// MulVec sets dst[i] ^= c * src[i] for all i, the row operation at the heart
// of Gaussian elimination and RLNC recombination. dst and src must have equal
// length.
func MulVec(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulVec length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i := range dst {
			dst[i] ^= src[i]
		}
		return
	}
	lc := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[lc+int(logTable[s])]
		}
	}
}

// ScaleVec multiplies every element of v by c in place.
func ScaleVec(v []byte, c byte) {
	if c == 1 {
		return
	}
	if c == 0 {
		for i := range v {
			v[i] = 0
		}
		return
	}
	lc := int(logTable[c])
	for i, s := range v {
		if s != 0 {
			v[i] = expTable[lc+int(logTable[s])]
		}
	}
}
