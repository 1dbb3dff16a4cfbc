//go:build !amd64

package gf256

// No vector kernels off amd64: the constant lets the compiler drop the
// dispatch branch, so the stubs below are never called.
const useAVX2, useGFNI = false, false

func mulAddVec(lo, hi *[16]byte, src, dst []byte) { panic("gf256: no vector kernel") }

func mulVec(lo, hi *[16]byte, src, dst []byte) { panic("gf256: no vector kernel") }

func mulRowPair(aff *[4]uint64, next, stride int, in [][]byte, out0, out1 []byte) {
	panic("gf256: no vector kernel")
}
