package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTablesConsistent(t *testing.T) {
	// exp and log are mutually inverse on the non-zero elements.
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		v := Exp(i)
		if v == 0 {
			t.Fatalf("Exp(%d) = 0", i)
		}
		if seen[v] {
			t.Fatalf("Exp(%d) = %#x repeats an earlier power; generator not primitive", i, v)
		}
		seen[v] = true
		if Log(v) != i {
			t.Fatalf("Log(Exp(%d)) = %d", i, Log(v))
		}
	}
	if len(seen) != 255 {
		t.Fatalf("powers of alpha cover %d elements, want 255", len(seen))
	}
}

func TestMulMatchesCarrylessReference(t *testing.T) {
	// Reference: schoolbook carry-less multiplication with reduction by Poly.
	ref := func(a, b byte) byte {
		var prod uint16
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				prod ^= uint16(a) << i
			}
		}
		for i := 15; i >= 8; i-- {
			if prod&(1<<i) != 0 {
				prod ^= uint16(Poly) << (i - 8)
			}
		}
		return byte(prod)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), ref(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x,%#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(func(a, b, c byte) bool {
		// Commutativity and associativity of both operations.
		if Add(a, b) != Add(b, a) || Mul(a, b) != Mul(b, a) {
			return false
		}
		if Add(Add(a, b), c) != Add(a, Add(b, c)) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		// Distributivity.
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a byte) bool {
		// Identities and inverses.
		if Add(a, 0) != a || Mul(a, 1) != a || Add(a, a) != 0 {
			return false
		}
		if a != 0 {
			if Mul(a, Inv(a)) != 1 {
				return false
			}
			if Div(a, a) != 1 {
				return false
			}
		}
		return Mul(a, 0) == 0
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestDivInverseOfMul(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			p := Mul(byte(a), byte(b))
			if Div(p, byte(b)) != byte(a) {
				t.Fatalf("Div(Mul(%#x,%#x),%#x) != %#x", a, b, b, a)
			}
		}
	}
}

func TestPow(t *testing.T) {
	for a := 0; a < 256; a++ {
		want := byte(1)
		for e := 0; e < 520; e++ {
			if got := Pow(byte(a), e); got != want {
				t.Fatalf("Pow(%#x,%d) = %#x, want %#x", a, e, got, want)
			}
			want = Mul(want, byte(a))
		}
	}
	if Pow(0, 0) != 1 {
		t.Errorf("Pow(0,0) = %d, want 1 (empty product)", Pow(0, 0))
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Div by zero", func() { Div(3, 0) })
	mustPanic("Inv of zero", func() { Inv(0) })
	mustPanic("Log of zero", func() { Log(0) })
	mustPanic("negative Exp", func() { Exp(-1) })
	mustPanic("MulSlice mismatch", func() { MulSlice(2, make([]byte, 3), make([]byte, 4)) })
	mustPanic("MulAddSlice mismatch", func() { MulAddSlice(2, make([]byte, 3), make([]byte, 4)) })
}

func TestSliceKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(300)
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		c := byte(rng.Intn(256))

		wantMul := make([]byte, n)
		wantMulAdd := make([]byte, n)
		for i := range src {
			wantMul[i] = Mul(c, src[i])
			wantMulAdd[i] = dst[i] ^ Mul(c, src[i])
		}

		gotMulAdd := append([]byte(nil), dst...)
		MulAddSlice(c, src, gotMulAdd)
		if !bytes.Equal(gotMulAdd, wantMulAdd) {
			t.Fatalf("MulAddSlice(c=%#x) mismatch", c)
		}

		gotMul := append([]byte(nil), dst...)
		MulSlice(c, src, gotMul)
		if !bytes.Equal(gotMul, wantMul) {
			t.Fatalf("MulSlice(c=%#x) mismatch", c)
		}
	}
}

func TestAddSlice(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 5, 6}
	AddSlice(a, b)
	if !bytes.Equal(b, []byte{5, 7, 5}) {
		t.Errorf("AddSlice = %v", b)
	}
}

func BenchmarkGFMulAddSliceTable(b *testing.B) {
	src := make([]byte, 1024)
	dst := make([]byte, 1024)
	rand.New(rand.NewSource(2)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x57, src, dst)
	}
}

func BenchmarkGFMulAddSliceLogExp(b *testing.B) {
	// Ablation: the same kernel through log/exp lookups instead of the
	// 64 KiB product table, to quantify why the table is worth its memory.
	src := make([]byte, 1024)
	dst := make([]byte, 1024)
	rand.New(rand.NewSource(2)).Read(src)
	c := byte(0x57)
	lc := logTbl[c]
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range src {
			if s != 0 {
				dst[j] ^= expTbl[lc+logTbl[s]]
			}
		}
	}
}
