// Package gf16 implements arithmetic over GF(2^16).
//
// Section 2.2 of the paper notes that the RSE symbol size m must satisfy
// n < 2^m and mentions hardware designs with m = 8 or m = 32. GF(2^8)
// (package gf256) caps an FEC block at 256 packets; this field lifts the
// limit to 65536, enabling the very large transmission groups that
// Section 4.2 shows are the right answer to burst loss. Elements are
// uint16; multiplication uses 768 KiB of log/exp tables (a full product
// table would need 8 GiB). The slice kernels work on packets as they arrive: a
// byte slice whose big-endian byte pairs are the symbols.
package gf16

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rmfec/internal/gf256"
)

// Poly is the primitive polynomial x^16+x^12+x^3+x+1 (0x1100B) generating
// the field.
const Poly = 0x1100B

// Order is the number of field elements.
const Order = 1 << 16

const groupOrder = Order - 1 // order of the multiplicative group

// expTbl holds alpha^i twice over, so the exponent sum of a product
// needs no reduction, then zeros: logTbl[0] is logZero, past the powers,
// so the slice kernels multiply a zero symbol without a branch. The
// table's length is a power of two, so a masked index needs no bounds
// check.
var (
	expTbl [1 << 18]uint16
	logTbl [Order]int32
)

const (
	logZero = 2 * groupOrder
	expMask = len(expTbl) - 1
)

// mulLog returns s times the element whose logarithm is lc.
func mulLog(lc int32, s uint16) uint16 { return expTbl[int(lc+logTbl[s])&expMask] }

// mulPairs writes the big-endian symbols of src times the element whose
// logarithm is lc into dst, XORing them into dst's contents when add is
// set; four symbols, one 64-bit word, at a time.
func mulPairs(lc int32, src, dst []byte, add bool) {
	d := dst[:len(src)]
	for len(src) >= 8 {
		w := binary.BigEndian.Uint64(src)
		p := uint64(mulLog(lc, uint16(w>>48)))<<48 | uint64(mulLog(lc, uint16(w>>32)))<<32 |
			uint64(mulLog(lc, uint16(w>>16)))<<16 | uint64(mulLog(lc, uint16(w)))
		if add {
			p ^= binary.BigEndian.Uint64(d)
		}
		binary.BigEndian.PutUint64(d, p)
		src, d = src[8:], d[8:]
	}
	for i := 0; i < len(src); i += 2 {
		p := mulLog(lc, binary.BigEndian.Uint16(src[i:]))
		if add {
			p ^= binary.BigEndian.Uint16(d[i:])
		}
		binary.BigEndian.PutUint16(d[i:], p)
	}
}

func init() {
	x := 1
	for i := 0; i < groupOrder; i++ {
		expTbl[i] = uint16(x)
		logTbl[x] = int32(i)
		x <<= 1
		if x&Order != 0 {
			x ^= Poly
		}
	}
	if x != 1 {
		panic("gf16: 0x1100B is not primitive (table construction bug)")
	}
	for i := groupOrder; i < 2*groupOrder; i++ {
		expTbl[i] = expTbl[i-groupOrder]
	}
	logTbl[0] = logZero
}

// Add returns a+b (XOR).
func Add(a, b uint16) uint16 { return a ^ b }

// Mul returns the field product a*b.
func Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return expTbl[logTbl[a]+logTbl[b]]
}

// Div returns a/b; it panics if b is zero.
func Div(a, b uint16) uint16 {
	if b == 0 {
		panic("gf16: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTbl[logTbl[a]-logTbl[b]+groupOrder]
}

// Inv returns the multiplicative inverse of a; it panics if a is zero.
func Inv(a uint16) uint16 {
	if a == 0 {
		panic("gf16: inverse of zero")
	}
	return expTbl[groupOrder-logTbl[a]]
}

// Exp returns alpha^e for e >= 0, alpha the primitive element.
func Exp(e int) uint16 {
	if e < 0 {
		panic("gf16: negative exponent")
	}
	return expTbl[e%groupOrder]
}

// Pow returns a^e; a^0 == 1 for every a.
func Pow(a uint16, e int) uint16 {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	le := (int(logTbl[a]) * e) % groupOrder
	if le < 0 {
		le += groupOrder
	}
	return expTbl[le]
}

// checkPairs panics unless src and dst have one even length: the slice
// kernels read big-endian 16-bit symbols, byte pair (2i, 2i+1) being
// symbol i.
func checkPairs(op string, src, dst []byte) {
	if len(src) != len(dst) || len(src)%2 != 0 {
		panic(fmt.Sprintf("gf16: %s lengths %d and %d, want equal and even", op, len(src), len(dst)))
	}
}

// AddSlice computes dst ^= src over big-endian 16-bit symbols, which is
// byte-wise XOR, so it runs gf256's word-parallel kernel, as MulAddSlice
// does for c == 1.
func AddSlice(src, dst []byte) {
	checkPairs("AddSlice", src, dst)
	gf256.AddSlice(src, dst)
}

// MulAddSlice computes dst ^= c*src over big-endian 16-bit symbols, the
// codec kernel. The slices must have equal, even length.
func MulAddSlice(c uint16, src, dst []byte) {
	checkPairs("MulAddSlice", src, dst)
	switch c {
	case 0:
	case 1:
		gf256.AddSlice(src, dst)
	default:
		mulPairs(logTbl[c], src, dst, true)
	}
}

// MulSlice sets dst = c*src over big-endian 16-bit symbols. The slices
// must have equal, even length.
func MulSlice(c uint16, src, dst []byte) {
	checkPairs("MulSlice", src, dst)
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		mulPairs(logTbl[c], src, dst, false)
	}
}

// ErrSingular is returned by SolveSmall when the system has no solution.
var ErrSingular = errors.New("gf16: singular matrix")

// SolveSmall is gf256.SolveSmall over GF(2^16): Gauss-Jordan elimination
// in place, allocating nothing, over the row-major n x w matrix m = [A | B]
// with A square, leaving [I | A^-1 B]. Returns ErrSingular, with m
// half-reduced, if A has no inverse.
func SolveSmall(m []uint16, n, w int) error {
	for col := 0; col < n; col++ {
		pivot := col
		for pivot < n && m[pivot*w+col] == 0 {
			pivot++
		}
		if pivot == n {
			return ErrSingular
		}
		prow := m[col*w : (col+1)*w]
		if pivot != col {
			other := m[pivot*w : (pivot+1)*w]
			for i := range prow {
				prow[i], other[i] = other[i], prow[i]
			}
		}
		if pv := prow[col]; pv != 1 {
			li := groupOrder - logTbl[pv] // log of pv^-1
			for i, v := range prow {
				prow[i] = mulLog(li, v)
			}
		}
		for r := 0; r < n; r++ {
			row := m[r*w : (r+1)*w]
			if f := row[col]; r != col && f != 0 {
				lf := logTbl[f]
				for i, v := range prow {
					row[i] ^= mulLog(lf, v)
				}
			}
		}
	}
	return nil
}
