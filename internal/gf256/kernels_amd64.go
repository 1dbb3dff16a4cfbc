package gf256

// useAVX2 reports whether the vector kernels of kernels_amd64.s may run:
// the CPU implements AVX2 and the OS saves the YMM state. Computed once,
// before any init function.
var useAVX2 = detectAVX2()

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

// mulVec is the overwriting counterpart of mulAddVec: dst[i] = c*src[i].
//
//go:noescape
func mulVec(lo, hi *[16]byte, src, dst []byte)

// cpuid executes CPUID with EAX = leaf, ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)
