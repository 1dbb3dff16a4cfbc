package gf16

import (
	"bytes"
	"math/rand"
	"testing"
)

// mulAddScalarRef is the symbol-at-a-time multiply-add over big-endian
// byte pairs, kept in the tests as the reference the c == 1 dispatch to
// gf256's word-parallel XOR must match.
func mulAddScalarRef(c uint16, src, dst []byte) {
	for i := 0; i < len(src)/2; i++ {
		p := symbol(dst, i) ^ Mul(c, symbol(src, i))
		dst[2*i], dst[2*i+1] = byte(p>>8), byte(p)
	}
}

// TestXorFastPathMatchesScalar sweeps the c == 1 dispatch of MulAddSlice
// (gf256's XOR kernel) against the scalar reference across lengths around the
// 8-symbol unroll boundary and all sub-unroll alignments.
func TestXorFastPathMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 511, 512}
	for _, n := range lengths {
		for _, align := range []int{0, 1, 3, 7} {
			backingSrc := make([]byte, 2*n+align)
			backingDst := make([]byte, 2*n+align)
			rng.Read(backingSrc)
			rng.Read(backingDst)
			src := backingSrc[align:]
			dst := backingDst[align:]

			want := append([]byte(nil), dst...)
			mulAddScalarRef(1, src, want)

			got := append([]byte(nil), dst...)
			MulAddSlice(1, src, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulAddSlice(1, n=%d, align=%d) diverges", n, align)
			}
		}
	}
}

// BenchmarkKernels16 measures the symbol XOR path against the scalar
// reference; check.sh runs it with -benchtime 1x as a smoke test.
func BenchmarkKernels16(b *testing.B) {
	const n = 1024 // bytes = 512 symbols
	src := make([]byte, n)
	dst := make([]byte, n)
	rand.New(rand.NewSource(2)).Read(src)
	b.Run("Xor", func(b *testing.B) {
		b.SetBytes(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MulAddSlice(1, src, dst)
		}
	})
	b.Run("XorScalarRef", func(b *testing.B) {
		b.SetBytes(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mulAddScalarRef(1, src, dst)
		}
	})
}
