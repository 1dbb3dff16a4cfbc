package gf256

import (
	"errors"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	rng.Read(m.Data)
	return m
}

func matricesEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 16} {
		m := randomMatrix(rng, n, n)
		if !matricesEqual(m.Mul(Identity(n)), m) {
			t.Errorf("m*I != m for n=%d", n)
		}
		if !matricesEqual(Identity(n).Mul(m), m) {
			t.Errorf("I*m != m for n=%d", n)
		}
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 7, 20} {
		for trial := 0; trial < 20; trial++ {
			m := randomMatrix(rng, n, n)
			inv, err := m.Invert()
			if errors.Is(err, ErrSingular) {
				continue // random matrices are occasionally singular
			}
			if err != nil {
				t.Fatalf("Invert: %v", err)
			}
			if !matricesEqual(m.Mul(inv), Identity(n)) {
				t.Fatalf("m*m^-1 != I for n=%d", n)
			}
			if !matricesEqual(inv.Mul(m), Identity(n)) {
				t.Fatalf("m^-1*m != I for n=%d", n)
			}
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 5)
	m.Set(0, 1, 7)
	m.Set(1, 0, 5)
	m.Set(1, 1, 7) // duplicate row
	if _, err := m.Invert(); !errors.Is(err, ErrSingular) {
		t.Errorf("Invert of singular matrix: err = %v, want ErrSingular", err)
	}
	z := NewMatrix(3, 3) // all-zero
	if _, err := z.Invert(); !errors.Is(err, ErrSingular) {
		t.Errorf("Invert of zero matrix: err = %v, want ErrSingular", err)
	}
}

// TestSolveSmallMatchesInvert holds the in-place, allocation-free
// elimination to the Matrix algebra on random systems [A | I | B] (which
// need pivot swaps now and then), singular ones included: it must leave
// [I | A^-1 | A^-1 B], and allocate nothing.
func TestSolveSmallMatchesInvert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// join lays matrices side by side.
	join := func(ms ...*Matrix) *Matrix {
		w := 0
		for _, m := range ms {
			w += m.Cols
		}
		out := NewMatrix(ms[0].Rows, w)
		for r := 0; r < out.Rows; r++ {
			row := out.Row(r)[:0]
			for _, m := range ms {
				row = append(row, m.Row(r)...)
			}
		}
		return out
	}
	for _, n := range []int{1, 2, 3, 7, 20, 33} {
		for trial := 0; trial < 50; trial++ {
			a, b := randomMatrix(rng, n, n), randomMatrix(rng, n, 1+trial%5)
			if trial%5 == 0 {
				a.Set(0, 0, 0) // force a swap on the first column
			}
			want, wantErr := a.Invert()
			m := join(a, Identity(n), b)
			err := SolveSmall(m.Data, n, m.Cols)
			if !errors.Is(err, wantErr) {
				t.Fatalf("n=%d: SolveSmall err = %v, Invert err = %v", n, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !matricesEqual(m, join(Identity(n), want, want.Mul(b))) {
				t.Fatalf("n=%d: SolveSmall left %v, want [I | A^-1 | A^-1 B]", n, m.Data)
			}
		}
	}
	dup := []byte{5, 7, 1, 5, 7, 2}
	if err := SolveSmall(dup, 2, 3); !errors.Is(err, ErrSingular) {
		t.Errorf("SolveSmall of a duplicate-row system: err = %v, want ErrSingular", err)
	}
	src := join(Vandermonde(4, 4, 1), Identity(4))
	m := make([]byte, len(src.Data))
	if allocs := testing.AllocsPerRun(20, func() {
		copy(m, src.Data)
		if err := SolveSmall(m, 4, 8); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SolveSmall allocated %.1f times per run, want 0", allocs)
	}
}

func TestVandermondeRowSubmatricesInvertible(t *testing.T) {
	// Any k rows of an n x k Vandermonde matrix with distinct evaluation
	// points form an invertible matrix: this is the property the systematic
	// RS construction in package rse depends on.
	const n, k = 12, 5
	v := Vandermonde(n, k, 0)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		rows := rng.Perm(n)[:k]
		if _, err := v.SubMatrix(rows).Invert(); err != nil {
			t.Fatalf("rows %v of Vandermonde singular: %v", rows, err)
		}
	}
}

func TestMatrixMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 3, 4)
	b := randomMatrix(rng, 4, 5)
	c := randomMatrix(rng, 5, 2)
	if !matricesEqual(a.Mul(b).Mul(c), a.Mul(b.Mul(c))) {
		t.Error("(ab)c != a(bc)")
	}
}

func TestMatrixPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero dims", func() { NewMatrix(0, 3) })
	mustPanic("product mismatch", func() { NewMatrix(2, 3).Mul(NewMatrix(2, 3)) })
	mustPanic("Invert non-square", func() { NewMatrix(2, 3).Invert() }) //nolint:errcheck
	mustPanic("Vandermonde too tall", func() { Vandermonde(300, 3, 0) })
}

func TestSubMatrix(t *testing.T) {
	m := Vandermonde(5, 3, 0)
	s := m.SubMatrix([]int{4, 1})
	for j := 0; j < 3; j++ {
		if s.At(0, j) != m.At(4, j) || s.At(1, j) != m.At(1, j) {
			t.Fatal("SubMatrix rows wrong")
		}
	}
}

func BenchmarkMatrixInvert20(b *testing.B) {
	v := Vandermonde(40, 20, 0)
	rows := rand.New(rand.NewSource(8)).Perm(40)[:20]
	sub := v.SubMatrix(rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sub.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}
