//go:build !amd64

package gf256

// No vector kernels off amd64: the constant lets the compiler drop the
// dispatch branch, so the stubs below are never called.
const useAVX2 = false

func mulAddVec(lo, hi *[16]byte, src, dst []byte) { panic("gf256: no vector kernel") }

func mulVec(lo, hi *[16]byte, src, dst []byte) { panic("gf256: no vector kernel") }
