package gf256

// Slice multiply-accumulate kernels.
//
// The byte-at-a-time kernels (kept below as MulAddSliceScalar and
// MulSliceScalar — the correctness oracle every other kernel is tested
// against) spend most of their time on per-byte loads, stores and bounds
// checks rather than on field arithmetic. The public slice functions of
// gf256.go therefore dispatch, in this order:
//
//   - Vector prefix (amd64 with AVX2, slices of >= vecBlock bytes): the
//     split-nibble identity c*x = mulLo[c][x&15] ^ mulHi[c][x>>4] with the
//     two 16-entry rows held in YMM registers, so one VPSHUFB performs 32
//     table lookups (kernels_amd64.s). 32 bytes per iteration, no table
//     traffic at all — the working set is the two rows — so it is
//     indifferent to how many distinct coefficients a code uses. The CPU
//     is qualified once at start-up (useAVX2, kernels_amd64.go); on other
//     architectures useAVX2 is the constant false and the branch compiles
//     away (kernels_other.go).
//
//   - Pair tables (the portable word kernel: the tail the vector kernel
//     leaves, every slice shorter than vecBlock, and everything on hosts
//     without AVX2): for each coefficient c a lazily built 65536-entry
//     table maps a byte *pair* (b0, b1) to the packed pair of products
//     (c*b0, c*b1). A 64-bit word then needs only four table lookups, one
//     64-bit load and one 64-bit store. This is the layout GF-Complete
//     calls SPLIT(8,8). Tables are 128 KiB per coefficient, built on first
//     use and published with an atomic pointer (32 MiB ceiling if all 254
//     non-trivial coefficients are ever exercised). The layout only pays
//     while the live tables fit in cache: measured on the reference host
//     it beats the scalar loop up to roughly 32 distinct coefficients and
//     collapses to ~0.25x beyond 64, so the rse codec counts the distinct
//     coefficients of each generator or decode matrix and falls back to
//     the *Compact forms (gf256.go) past its budget; those run the same
//     vector prefix and then the byte loop over the shared product table.
//
// The portable kernels re-slice up front (d := dst[:len(src)]) so the
// compiler drops bounds checks and go through encoding/binary — no unsafe,
// no goroutines. Every kernel is bit-identical to the scalar reference on
// every input (see TestKernelsMatchScalar).
//
// The c == 1 case (pure XOR: parity accumulation with unit coefficient,
// AddSlice) skips the tables entirely and XORs four words per iteration.

import (
	"encoding/binary"
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
	// pairTbls[c] points to the coefficient's pair-product table:
	// entry b0|b1<<8 holds c*b0 | (c*b1)<<8. Built lazily by
	// pairTableFor, published atomically; never mutated after publish.
	pairTbls [256]atomic.Pointer[[65536]uint16]
)

// buildNibbleTables fills the split-nibble product tables; called from the
// package init in gf256.go once the log/exp tables exist.
func buildNibbleTables() {
	for c := 0; c < 256; c++ {
		for x := 0; x < 16; x++ {
			mulLo[c][x] = mulSlow(byte(c), byte(x))
			mulHi[c][x] = mulSlow(byte(c), byte(x<<4))
		}
	}
}

// Kernel names the multiply kernel this process dispatches to for slices of
// at least 32 bytes: "avx2" or "portable". Benchmark output carries it so a
// number taken on a CPU without AVX2 is not read as a regression.
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
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

// mulWords computes dst[i] = c*src[i] with the pair-table word kernel;
// c must not be 0 or 1 (dispatched in MulSlice).
func mulWords(c byte, src, dst []byte) {
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
		binary.LittleEndian.PutUint64(d, w)
		binary.LittleEndian.PutUint64(d[8:], v)
		s = s[16:]
		d = d[16:]
	}
	if len(s) >= 8 {
		x := binary.LittleEndian.Uint64(s)
		w := uint64(t[x&0xffff]) | uint64(t[(x>>16)&0xffff])<<16 |
			uint64(t[(x>>32)&0xffff])<<32 | uint64(t[x>>48])<<48
		binary.LittleEndian.PutUint64(d, w)
		s = s[8:]
		d = d[8:]
	}
	if len(s) > 0 {
		row := &mulTbl[c]
		for i, v := range s {
			d[i] = row[v]
		}
	}
}

// MulAddSliceScalar is the byte-at-a-time multiply-accumulate kernel that
// predates the word-parallel path: dst[i] ^= c*src[i] through the 64 KiB
// product table. It is retained as the reference implementation — the
// equivalence tests assert the word kernels match it byte for byte, and
// BenchmarkKernels reports the speedup of MulAddSlice against it.
func MulAddSliceScalar(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("MulAddSliceScalar", len(src), len(dst)))
	}
	switch c {
	case 0:
		return
	case 1:
		for i, s := range src {
			dst[i] ^= s
		}
	default:
		tbl := &mulTbl[c]
		for i, s := range src {
			dst[i] ^= tbl[s]
		}
	}
}

// MulSliceScalar is the byte-at-a-time counterpart of MulSlice, retained
// as the reference implementation for the word-parallel kernel.
func MulSliceScalar(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(lengthMismatch("MulSliceScalar", len(src), len(dst)))
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		tbl := &mulTbl[c]
		for i, s := range src {
			dst[i] = tbl[s]
		}
	}
}
