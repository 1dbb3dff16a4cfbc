package gf256

// useAVX2 reports whether the vector kernels of kernels_amd64.s may run:
// the CPU implements AVX2 and the OS saves the YMM state. Computed once,
// before any init function.
var useAVX2 = detectAVX2()

// useGFNI reports whether the fused row product of kernels_amd64.s may
// run: the AVX2 qualification holds and CPUID leaf 7 sets ECX bit 8
// (GFNI), which the VEX-encoded VGF2P8AFFINEQB needs on top of it.
var useGFNI = useAVX2 && func() bool { _, _, ecx, _ := cpuid(7, 0); return ecx&(1<<8) != 0 }()

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS restores XMM and YMM state on a switch.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// mulAddVec computes dst[i] ^= c*src[i] over the largest 32-byte-multiple
// prefix of src, given c's nibble tables (&mulLo[c], &mulHi[c]); the
// remaining len(src)%32 bytes are the caller's. len(dst) must be >=
// len(src). Each block is loaded before it is stored, so src and dst may
// be the same slice. Requires useAVX2.
//
//go:noescape
func mulAddVec(lo, hi *[16]byte, src, dst []byte)

// mulRowPair computes out0 = sum_i A0(i) in[i] and out1 = sum_i A1(i)
// in[i], where A0(i) is the 32-byte affine matrix at byte offset i*stride
// from aff and A1(i) the one next bytes past it: 32 for the following row,
// or 0 for a single row, whose two stores then write the same bytes.
// len(out0) = len(out1) must be a multiple of 32 and at least 64, every
// source at least that long, and no output may alias a source. Requires
// useGFNI.
//
//go:noescape
func mulRowPair(aff *[4]uint64, next, stride int, in [][]byte, out0, out1 []byte)

// cpuid executes CPUID with EAX = leaf, ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)
