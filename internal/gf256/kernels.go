package gf256

// Slice multiply-accumulate kernels.
//
// The byte-at-a-time loop over the 64 KiB product table spends most of
// its time on per-byte loads, stores and bounds checks rather than on
// field arithmetic (the tests keep it as the oracle every kernel must
// reproduce). The slice functions therefore dispatch, in this order:
//
//   - Fused row product (amd64 with GFNI and AVX2, slices a multiple of
//     vecBlock bytes from 2*vecBlock up): Rows.MulRows computes a block of
//     parity or decode rows. Multiplication by a constant c is
//     GF(2)-linear, so it is an 8x8 bit matrix, and VGF2P8AFFINEQB applies
//     one to 32 bytes in one instruction (kernels_amd64.s). Each pass
//     loads two 32-byte columns of every source once and keeps two rows'
//     four accumulators in registers; Rows.Set builds the matrices once
//     per coefficient block, so the drain never builds one.
//
//   - Vector prefix (amd64 with AVX2, slices of >= vecBlock bytes): the
//     split-nibble identity c*x = mulLo[c][x&15] ^ mulHi[c][x>>4] with the
//     two 16-entry rows held in YMM registers, so one VPSHUFB performs 32
//     table lookups. 32 bytes per iteration, no table traffic: the working
//     set is the two rows, whatever the number of coefficients. The c == 1
//     rows are the identity, so XOR runs the same kernel. The CPU is
//     qualified once at start-up (useAVX2, useGFNI in kernels_amd64.go); on
//     other architectures both are the constant false and the branches
//     compile away (kernels_other.go).
//
//   - Pair tables (MulAddSlice past the vector prefix, and
//     everything on hosts without AVX2): for each coefficient c a lazily
//     built 65536-entry table maps a byte *pair* (b0, b1) to the packed
//     pair of products (c*b0, c*b1). A 64-bit word then needs only four
//     table lookups, one 64-bit load and one 64-bit store. This is the
//     layout GF-Complete calls SPLIT(8,8). Tables are 128 KiB per
//     coefficient, built on first use and published with an atomic
//     pointer. The layout only pays while the live tables fit in cache
//     (it collapses to ~0.25x the byte loop beyond ~64 coefficients), so
//     the row product, whose blocks carry many coefficients, finishes past
//     the vector prefix with the byte loop over the shared product table
//     instead.
//
// The portable kernels re-slice up front (d := dst[:len(src)]) so the
// compiler drops bounds checks and go through encoding/binary — no unsafe,
// no goroutines. Every kernel is bit-identical to the scalar reference on
// every input (see TestKernelsMatchScalar).

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
)

// vecBlock is the vector kernels' granule: they process the largest
// vecBlock-multiple prefix of a slice and leave the rest.
const vecBlock = 32

var (
	// mulLo[c][x] = c*x for x in [0,16): products of the low nibble.
	mulLo [256][16]byte
	// mulHi[c][x] = c*(x<<4): products of the high nibble.
	mulHi [256][16]byte
	// affTbl[c] is multiplication by c as the 8x8 bit matrix
	// VGF2P8AFFINEQB applies: byte 7-b of the word holds output bit b's
	// row, whose bit j is bit b of c*2^j.
	affTbl [256]uint64
	// pairTbls[c] points to the coefficient's pair-product table:
	// entry b0|b1<<8 holds c*b0 | (c*b1)<<8. Built lazily by
	// pairTableFor, published atomically; never mutated after publish.
	pairTbls [256]atomic.Pointer[[65536]uint16]
)

// buildNibbleTables fills the split-nibble and affine product tables;
// called from the package init in gf256.go once the log/exp tables exist.
func buildNibbleTables() {
	for c := 0; c < 256; c++ {
		for x := 0; x < 16; x++ {
			mulLo[c][x] = mulSlow(byte(c), byte(x))
			mulHi[c][x] = mulSlow(byte(c), byte(x<<4))
		}
		for jb := 0; jb < 64; jb++ { // bit b of c*2^j, j = jb&7, b = jb>>3
			affTbl[c] |= uint64(mulSlow(byte(c), 1<<(jb&7))>>(jb>>3)&1) << (jb&7 + 8*(7-jb>>3))
		}
	}
}

// Kernel names the multiply kernel this process dispatches to for slices of
// at least 32 bytes: "gfni" (the fused row product, with the AVX2 prefix
// for the single-coefficient kernels), "avx2" or "portable". Benchmark
// output carries it so a number taken on an older CPU is not read as a
// regression.
func Kernel() string {
	if useGFNI {
		return "gfni"
	}
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// Rows is a block of GF(2^8) coefficient rows prepared for MulRows. On a
// GFNI host it also holds every coefficient's 8x8 bit matrix, broadcast
// to a 32-byte lane and laid out source-major, so the kernel walks a row's
// matrices with one stride.
type Rows struct {
	c   []byte      // rows x k coefficients, row-major
	k   int         // sources per row
	aff [][4]uint64 // aff[i*rows+r] = the matrix of c[r*k+i]; GFNI hosts only
}

// Set points m at the rows x k coefficient block c (row-major, len(c) a
// multiple of k, not copied: c must not change while m is in use) and
// builds its matrices in O(len(c)), reusing m's storage.
func (m *Rows) Set(c []byte, k int) {
	m.c, m.k = c, k
	if !useGFNI {
		return
	}
	m.aff = slices.Grow(m.aff[:0], len(c))[:len(c)] // allocates only past the largest block yet
	// Coefficient x is (r, i) = (x/k, x%k); its matrix goes to i*rows + r.
	for x, co := range c {
		a := affTbl[co]
		m.aff[x%k*(len(c)/k)+x/k] = [4]uint64{a, a, a, a}
	}
}

// MulRows sets out[r] = sum_i c[(first+r)*k+i] * in[i] for every r <
// len(out): len(out) rows of the block, starting at row first, evaluated
// over the k sources in. Every slice must have the same length; out
// slices must not alias in. On a GFNI host a length that is a multiple of
// 32, from 64 up, runs the fused kernel, two rows per pass; every other
// case runs one row at a time through the vector prefix and the
// byte-table tail.
func (m *Rows) MulRows(first int, in, out [][]byte) {
	n := len(in[0])
	if odd := func(s []byte) bool { return len(s) != n }; len(in) != m.k || slices.ContainsFunc(in, odd) || slices.ContainsFunc(out, odd) {
		panic(fmt.Sprintf("gf256: MulRows over %d sources (want %d) of unequal lengths", len(in), m.k))
	}
	if useGFNI && n >= 2*vecBlock && n%vecBlock == 0 {
		m.mulRowsFused(first, in, out)
		return
	}
	m.mulRowsTbl(first, in, out)
}

// mulRowsFused is MulRows on the GFNI kernel, two rows per pass; an odd
// last row is passed as both.
func (m *Rows) mulRowsFused(first int, in, out [][]byte) {
	stride := len(m.c) / m.k * 32
	for r := 0; r < len(out); r += 2 {
		r1 := min(r+1, len(out)-1)
		mulRowPair(&m.aff[first+r], (r1-r)*32, stride, in, out[r], out[r1])
	}
}

// mulRowsTbl is MulRows one row at a time, on any host and length: per
// coefficient the vector prefix, then the byte loop over the shared
// product table, never a pair table (a block's many coefficients would
// cycle them out of cache).
func (m *Rows) mulRowsTbl(first int, in, out [][]byte) {
	for r, dst := range out {
		clear(dst)
		for i, src := range in {
			c := m.c[(first+r)*m.k+i]
			src, dst := mulAddPrefix(c, src, dst)
			for b, x := range src {
				dst[b] ^= mulTbl[c][x]
			}
		}
	}
}

// mulAddPrefix computes dst[i] ^= c*src[i] over the largest vecBlock
// multiple of src on an AVX2 host, and returns the tails it left.
func mulAddPrefix(c byte, src, dst []byte) ([]byte, []byte) {
	if !useAVX2 || len(src) < vecBlock {
		return src, dst
	}
	mulAddVec(&mulLo[c], &mulHi[c], src, dst)
	n := len(src) &^ (vecBlock - 1)
	return src[n:], dst[n:len(src)]
}

// pairTableFor returns the pair-product table for c, building it on first
// use. Concurrent first calls may both build; the CompareAndSwap keeps one
// winner and the duplicate is garbage-collected, so no lock is needed.
func pairTableFor(c byte) *[65536]uint16 {
	if t := pairTbls[c].Load(); t != nil {
		return t
	}
	// pair table is built once per coefficient and cached in pairTbls
	t := new([65536]uint16)
	row := &mulTbl[c]
	for b0 := 0; b0 < 256; b0++ {
		p := uint16(row[b0])
		for b1 := 0; b1 < 256; b1++ {
			t[b0|b1<<8] = p | uint16(row[b1])<<8
		}
	}
	pairTbls[c].CompareAndSwap(nil, t)
	return pairTbls[c].Load()
}

// xorWords computes dst[i] ^= src[i] one 64-bit word at a time, 4x
// unrolled. len(dst) must be >= len(src); extra dst bytes are untouched.
func xorWords(src, dst []byte) {
	d := dst[:len(src)]
	s := src
	for len(s) >= 32 {
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^binary.LittleEndian.Uint64(s))
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^binary.LittleEndian.Uint64(s[8:]))
		binary.LittleEndian.PutUint64(d[16:], binary.LittleEndian.Uint64(d[16:])^binary.LittleEndian.Uint64(s[16:]))
		binary.LittleEndian.PutUint64(d[24:], binary.LittleEndian.Uint64(d[24:])^binary.LittleEndian.Uint64(s[24:]))
		s = s[32:]
		d = d[32:]
	}
	for len(s) >= 8 {
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^binary.LittleEndian.Uint64(s))
		s = s[8:]
		d = d[8:]
	}
	for i, v := range s {
		d[i] ^= v
	}
}

// mulAddWords computes dst[i] ^= c*src[i] with the pair-table word kernel,
// two words per iteration; c must not be 0 or 1 (dispatched in
// MulAddSlice). The &0xffff masks prove the table indices in range, so the
// lookups compile without bounds checks.
func mulAddWords(c byte, src, dst []byte) {
	t := pairTableFor(c)
	d := dst[:len(src)]
	s := src
	for len(s) >= 16 {
		x := binary.LittleEndian.Uint64(s)
		y := binary.LittleEndian.Uint64(s[8:])
		w := uint64(t[x&0xffff]) | uint64(t[(x>>16)&0xffff])<<16 |
			uint64(t[(x>>32)&0xffff])<<32 | uint64(t[x>>48])<<48
		v := uint64(t[y&0xffff]) | uint64(t[(y>>16)&0xffff])<<16 |
			uint64(t[(y>>32)&0xffff])<<32 | uint64(t[y>>48])<<48
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^w)
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])^v)
		s = s[16:]
		d = d[16:]
	}
	if len(s) >= 8 {
		x := binary.LittleEndian.Uint64(s)
		w := uint64(t[x&0xffff]) | uint64(t[(x>>16)&0xffff])<<16 |
			uint64(t[(x>>32)&0xffff])<<32 | uint64(t[x>>48])<<48
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^w)
		s = s[8:]
		d = d[8:]
	}
	if len(s) > 0 {
		row := &mulTbl[c]
		for i, v := range s {
			d[i] ^= row[v]
		}
	}
}
