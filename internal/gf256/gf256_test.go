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
		v := expTbl[i]
		if v == 0 {
			t.Fatalf("alpha^%d = 0", i)
		}
		if seen[v] {
			t.Fatalf("alpha^%d = %#x repeats an earlier power; generator not primitive", i, v)
		}
		seen[v] = true
		if logTbl[v] != int32(i) {
			t.Fatalf("log(alpha^%d) = %d", i, logTbl[v])
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
		// Commutativity and associativity of the product; addition is XOR.
		if Mul(a, b) != Mul(b, a) || Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		// Distributivity.
		return Mul(a, b^c) == Mul(a, b)^Mul(a, c)
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a byte) bool {
		// Identities and inverses.
		if Mul(a, 1) != a || a != 0 && (Mul(a, Inv(a)) != 1 || Inv(Inv(a)) != a) {
			return false
		}
		return Mul(a, 0) == 0
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestDivInverseOfMul: division is multiplication by Inv, and undoes Mul.
func TestDivInverseOfMul(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			p := Mul(byte(a), byte(b))
			if Mul(p, Inv(byte(b))) != byte(a) {
				t.Fatalf("Mul(Mul(%#x,%#x),Inv(%#x)) != %#x", a, b, b, a)
			}
		}
	}
}

// TestPow: a^e by repeated Mul is alpha^(e log a) read from the tables,
// over more than two turns of the multiplicative group.
func TestPow(t *testing.T) {
	for a := 1; a < 256; a++ {
		p := byte(1)
		for e := 0; e < 520; e++ {
			if want := expTbl[int(logTbl[a])*e%255]; p != want {
				t.Fatalf("%#x^%d = %#x by Mul, %#x by the tables", a, e, p, want)
			}
			p = Mul(p, byte(a))
		}
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
	mustPanic("Inv of zero", func() { Inv(0) })
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

		wantMulAdd := make([]byte, n)
		for i := range src {
			wantMulAdd[i] = dst[i] ^ Mul(c, src[i])
		}

		gotMulAdd := append([]byte(nil), dst...)
		MulAddSlice(c, src, gotMulAdd)
		if !bytes.Equal(gotMulAdd, wantMulAdd) {
			t.Fatalf("MulAddSlice(c=%#x) mismatch", c)
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
