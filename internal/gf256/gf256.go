// Package gf256 implements arithmetic over the Galois field GF(2^8).
//
// The field is realised as polynomials over GF(2) modulo the primitive
// polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same generator used by
// McAuley's burst-erasure coder and Rizzo's software FEC coder that the
// paper builds on. Elements are bytes; addition is XOR; multiplication is
// carried out through logarithm/antilogarithm tables built at package
// initialisation.
//
// The package provides the scalar product and inverse, vectorised multiply-accumulate
// kernels, the fused row product (Rows.MulRows) the Reed-Solomon erasure
// codec in package rse encodes and decodes with, and dense matrix
// operations (Vandermonde construction, Gaussian-elimination inversion)
// over the field.
package gf256

import "fmt"

// Poly is the primitive polynomial generating the field, expressed with the
// x^8 term included: x^8+x^4+x^3+x^2+1.
const Poly = 0x11d

// Generator is the primitive element alpha = x whose powers enumerate all
// 255 non-zero field elements.
const Generator = 0x02

// Order is the number of elements of the field.
const Order = 256

var (
	// expTbl[i] = alpha^i for i in [0,510); doubled so mulSlow can skip a
	// modular reduction of the exponent sum.
	expTbl [510]byte
	// logTbl[x] = log_alpha(x) for x != 0. logTbl[0] is a sentinel that is
	// never read by correct code.
	logTbl [256]int32
	// mulTbl[x][y] = x*y. 64 KiB; the fast path for the codec kernels.
	mulTbl [256][256]byte
	// invTbl[x] = x^-1 for x != 0.
	invTbl [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTbl[i] = byte(x)
		logTbl[x] = int32(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	if x != 1 {
		panic("gf256: 0x11d is not primitive (table construction bug)")
	}
	for i := 255; i < 510; i++ {
		expTbl[i] = expTbl[i-255]
	}
	logTbl[0] = -1 // sentinel
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			mulTbl[a][b] = mulSlow(byte(a), byte(b))
		}
	}
	for a := 1; a < 256; a++ {
		invTbl[a] = expTbl[255-logTbl[a]]
	}
	buildNibbleTables()
}

// mulSlow multiplies via log/exp tables; used only to seed mulTbl.
func mulSlow(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTbl[logTbl[a]+logTbl[b]]
}

// Mul returns the field product a*b.
func Mul(a, b byte) byte { return mulTbl[a][b] }

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invTbl[a]
}

func lengthMismatch(op string, a, b int) string {
	return fmt.Sprintf("gf256: %s length mismatch %d != %d", op, a, b)
}

// MulAddSlice computes dst[i] ^= c*src[i], the multiply-accumulate kernel at
// the heart of Reed-Solomon encoding and decoding, through the kernel
// dispatch of kernels.go: the AVX2 prefix where the CPU has it, then the
// pair-table word kernel. dst and src must have equal length and must not
// alias unless identical.
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("MulAddSlice", len(src), len(dst)))
	}
	switch c {
	case 0:
	case 1:
		xorWords(mulAddPrefix(1, src, dst)) // c = 1's nibble rows are the identity
	default:
		if useAVX2 && len(src) >= vecBlock {
			mulAddVec(&mulLo[c], &mulHi[c], src, dst)
			n := len(src) &^ (vecBlock - 1)
			if n == len(src) {
				return // no tail: do not build a pair table for it
			}
			src, dst = src[n:], dst[n:]
		}
		mulAddWords(c, src, dst)
	}
}

// AddSlice computes dst[i] ^= src[i]: on an AVX2 host the vecBlock-multiple
// prefix runs mulAddVec with c = 1's nibble rows, which are the identity,
// and xorWords takes the tail (or, without AVX2, everything) 64 bits at a
// time.
func AddSlice(src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("AddSlice", len(src), len(dst)))
	}
	xorWords(mulAddPrefix(1, src, dst))
}
