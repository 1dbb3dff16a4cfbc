package gf16

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTablesConsistent(t *testing.T) {
	// Spot-check exp/log inversion across the whole group (checking all
	// 65535 pairs both ways is cheap enough).
	for i := 0; i < groupOrder; i++ {
		v := expTbl[i]
		if v == 0 {
			t.Fatalf("alpha^%d = 0", i)
		}
		if int(logTbl[v]) != i {
			t.Fatalf("log(alpha^%d) = %d", i, logTbl[v])
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 4000}
	if err := quick.Check(func(a, b, c uint16) bool {
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		return Mul(a, b^c) == Mul(a, b)^Mul(a, c) // addition is XOR
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a uint16) bool {
		if Mul(a, 1) != a || Mul(a, 0) != 0 {
			return false
		}
		if a != 0 {
			if Mul(a, Div(1, a)) != 1 || Div(a, a) != 1 {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestMulMatchesCarrylessReference(t *testing.T) {
	ref := func(a, b uint16) uint16 {
		var prod uint32
		for i := 0; i < 16; i++ {
			if b&(1<<i) != 0 {
				prod ^= uint32(a) << i
			}
		}
		for i := 31; i >= 16; i-- {
			if prod&(1<<i) != 0 {
				prod ^= uint32(Poly) << (i - 16)
			}
		}
		return uint16(prod)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50000; trial++ {
		a := uint16(rng.Intn(Order))
		b := uint16(rng.Intn(Order))
		if got, want := Mul(a, b), ref(a, b); got != want {
			t.Fatalf("Mul(%#x,%#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

func TestDivInverseOfMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20000; trial++ {
		a := uint16(rng.Intn(Order))
		b := uint16(rng.Intn(Order-1) + 1)
		if Div(Mul(a, b), b) != a {
			t.Fatalf("Div(Mul(%#x,%#x),%#x) != %#x", a, b, b, a)
		}
	}
}

// TestPow: a^e by repeated Mul is alpha^(e log a) read from the tables.
func TestPow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a := uint16(rng.Intn(Order-1) + 1)
		p := uint16(1)
		for e := 0; e < 50; e++ {
			if want := expTbl[int(logTbl[a])*e%groupOrder]; p != want {
				t.Fatalf("%#x^%d = %#x by Mul, %#x by the tables", a, e, p, want)
			}
			p = Mul(p, a)
		}
	}
}

// pairs packs symbols into the kernels' big-endian byte form.
func pairs(sym ...uint16) []byte {
	b := make([]byte, 2*len(sym))
	for i, v := range sym {
		binary.BigEndian.PutUint16(b[2*i:], v)
	}
	return b
}

// symbol returns symbol i of a byte-pair slice.
func symbol(b []byte, i int) uint16 { return binary.BigEndian.Uint16(b[2*i:]) }

func TestSliceKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		src := make([]byte, 2*n)
		dst := make([]byte, 2*n)
		rng.Read(src)
		rng.Read(dst)
		c := uint16(rng.Intn(Order))
		gotAdd := append([]byte(nil), dst...)
		MulAddSlice(c, src, gotAdd)
		gotMul := append([]byte(nil), dst...)
		MulSlice(c, src, gotMul)
		for i := 0; i < n; i++ {
			if symbol(gotAdd, i) != symbol(dst, i)^Mul(c, symbol(src, i)) {
				t.Fatalf("MulAddSlice(%#x) wrong at %d", c, i)
			}
			if symbol(gotMul, i) != Mul(c, symbol(src, i)) {
				t.Fatalf("MulSlice(%#x) wrong at %d", c, i)
			}
		}
	}
}

// TestSolveSmall checks SolveSmall against the product it inverts: for
// random systems [A | I] it must leave [I | A^-1] with A A^-1 = I, and a
// singular A must report ErrSingular. It allocates nothing.
func TestSolveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 5, 17} {
		a := make([]uint16, n*n)
		m := make([]uint16, n*2*n)
		for trial := 0; trial < 20; trial++ {
			for i := range a {
				a[i] = uint16(rng.Intn(Order))
			}
			for r := 0; r < n; r++ {
				copy(m[r*2*n:], a[r*n:(r+1)*n])
				clear(m[r*2*n+n : (r+1)*2*n])
				m[r*2*n+n+r] = 1
			}
			if err := SolveSmall(m, n, 2*n); err != nil {
				continue // random A is singular with probability ~n/65536
			}
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					var acc uint16
					for i := 0; i < n; i++ {
						acc ^= Mul(a[r*n+i], m[i*2*n+n+c])
					}
					want := uint16(0)
					if r == c {
						want = 1
					}
					if acc != want {
						t.Fatalf("n=%d: (A A^-1)[%d][%d] = %#x, want %#x", n, r, c, acc, want)
					}
				}
			}
		}
	}
	dup := []uint16{3, 7, 1, 0, 3, 7, 0, 1}
	if err := SolveSmall(dup, 2, 4); !errors.Is(err, ErrSingular) {
		t.Errorf("duplicate-row system: err = %v, want ErrSingular", err)
	}
	m := make([]uint16, 4*8)
	if allocs := testing.AllocsPerRun(20, func() {
		for r := 0; r < 4; r++ {
			for c := 0; c < 8; c++ {
				m[r*8+c] = uint16(r*8 + c + 1)
			}
			m[r*8+r] = 0x8000 | uint16(r)
		}
		_ = SolveSmall(m, 4, 8)
	}); allocs != 0 {
		t.Errorf("SolveSmall allocated %.1f times per run, want 0", allocs)
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"div0":     func() { Div(3, 0) },
		"mismatch": func() { MulAddSlice(2, make([]byte, 4), make([]byte, 6)) },
		"odd":      func() { MulSlice(2, make([]byte, 3), make([]byte, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkGF16MulAddSlice(b *testing.B) {
	src := make([]byte, 1024) // 1 KiB packet = 512 symbols
	dst := make([]byte, 1024)
	rand.New(rand.NewSource(5)).Read(src)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x1234, src, dst)
	}
}

func TestSliceKernelSpecialCoefficients(t *testing.T) {
	src := pairs(1, 0, 0xffff, 42)
	dst := pairs(9, 9, 9, 9)
	// c = 0: MulAdd is a no-op, Mul zeroes.
	d := append([]byte(nil), dst...)
	MulAddSlice(0, src, d)
	if !bytes.Equal(d, dst) {
		t.Fatal("MulAddSlice(0) changed dst")
	}
	MulSlice(0, src, d)
	if !bytes.Equal(d, pairs(0, 0, 0, 0)) {
		t.Fatal("MulSlice(0) did not zero dst")
	}
	// c = 1: MulAdd XORs, Mul copies.
	d = append(d[:0], dst...)
	MulAddSlice(1, src, d)
	if !bytes.Equal(d, pairs(9^1, 9, 9^0xffff, 9^42)) {
		t.Fatal("MulAddSlice(1) != XOR")
	}
	MulSlice(1, src, d)
	if !bytes.Equal(d, src) {
		t.Fatal("MulSlice(1) != copy")
	}
	// General c with zero symbols inside.
	MulSlice(7, src, d)
	if symbol(d, 1) != 0 || symbol(d, 0) != Mul(7, 1) {
		t.Fatal("MulSlice(7) wrong on zero/one symbols")
	}
}
