package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestLogBinomialSmall(t *testing.T) {
	// Pascal's triangle, exactly representable.
	want := [][]float64{
		{1},
		{1, 1},
		{1, 2, 1},
		{1, 3, 3, 1},
		{1, 4, 6, 4, 1},
		{1, 5, 10, 10, 5, 1},
	}
	for n, row := range want {
		for k, w := range row {
			if got := Binomial(n, k); !almostEqual(got, w, 1e-12) {
				t.Errorf("C(%d,%d) = %g, want %g", n, k, got, w)
			}
		}
	}
	if got := Binomial(3, 5); got != 0 {
		t.Errorf("C(3,5) = %g, want 0", got)
	}
	if got := Binomial(50, 25); !almostEqual(got, 126410606437752, 1e-10) {
		t.Errorf("C(50,25) = %g", got)
	}
}

func TestLogBinomialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for negative n")
		}
	}()
	LogBinomial(-1, 0)
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 7, 40} {
		for _, p := range []float64{0, 0.01, 0.3, 0.99, 1} {
			var s float64
			for k := 0; k <= n; k++ {
				s += BinomialPMF(n, k, p)
			}
			if !almostEqual(s, 1, 1e-10) {
				t.Errorf("sum PMF(n=%d,p=%g) = %g", n, p, s)
			}
		}
	}
}

func TestBinomialCDFTailComplement(t *testing.T) {
	for _, n := range []int{5, 20, 100} {
		for _, p := range []float64{0.01, 0.25, 0.9} {
			for k := -1; k <= n+1; k++ {
				cdf := BinomialCDF(n, k, p)
				tail := BinomialTail(n, k+1, p)
				if !almostEqual(cdf+tail, 1, 1e-9) {
					t.Errorf("CDF(%d)+Tail(%d) = %g (n=%d,p=%g)", k, k+1, cdf+tail, n, p)
				}
				if cdf < 0 || cdf > 1 {
					t.Errorf("CDF out of range: %g", cdf)
				}
			}
		}
	}
}

func TestBinomialCDFMonotone(t *testing.T) {
	err := quick.Check(func(nRaw, kRaw uint8, pRaw uint16) bool {
		n := int(nRaw%100) + 1
		k := int(kRaw) % n
		p := float64(pRaw) / 65535
		return BinomialCDF(n, k, p) <= BinomialCDF(n, k+1, p)+1e-12
	}, &quick.Config{MaxCount: 1000})
	if err != nil {
		t.Error(err)
	}
}

func TestPowN(t *testing.T) {
	for _, x := range []float64{0, 0.5, 1, 2, 0.99} {
		want := 1.0
		for n := 0; n < 40; n++ {
			if got := PowN(x, n); !almostEqual(got, want, 1e-12) {
				t.Fatalf("PowN(%g,%d) = %g, want %g", x, n, got, want)
			}
			want *= x
		}
	}
}

func TestOneMinusPowRStable(t *testing.T) {
	// For tiny x and large R the naive form loses all precision; compare
	// against the exact expansion for a representative case.
	x := 1e-10
	r := 1000000
	got := OneMinusPowR(x, r)
	// 1-(1-x)^R ~= R*x - C(R,2) x^2 for tiny x.
	want := float64(r)*x - 0.5*float64(r)*float64(r-1)*x*x
	if !almostEqual(got, want, 1e-6) {
		t.Errorf("OneMinusPowR(%g,%d) = %g, want ~%g", x, r, got, want)
	}
	if OneMinusPowR(0, 5) != 0 {
		t.Error("x=0 must give 0")
	}
	if OneMinusPowR(1, 5) != 1 {
		t.Error("x=1 must give 1")
	}
	if OneMinusPowR(1, 0) != 0 {
		t.Error("R=0 must give 0")
	}
	// Agreement with the naive form where that is accurate.
	naive := 1 - math.Pow(1-0.25, 17)
	if got := OneMinusPowR(0.25, 17); !almostEqual(got, naive, 1e-12) {
		t.Errorf("OneMinusPowR(0.25,17) = %g, want %g", got, naive)
	}
}

func TestSumCCDFGeometric(t *testing.T) {
	// X geometric (number of transmissions until first success),
	// P(X <= m) = 1 - p^m, so E[X] = sum_{m>=0} p^m = 1/(1-p).
	p := 0.3
	got := SumCCDF(0, func(m int) float64 { return math.Pow(p, float64(m)) }, 0)
	if !almostEqual(got, 1/(1-p), 1e-9) {
		t.Errorf("geometric mean = %g, want %g", got, 1/(1-p))
	}
}

func TestSumCCDFDoesNotConvergePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-converging sum")
		}
	}()
	SumCCDF(0, func(m int) float64 { return 1 }, 1e-12)
}

func TestProbabilityValidation(t *testing.T) {
	for _, f := range []func(){
		func() { BinomialPMF(3, 1, -0.1) },
		func() { BinomialPMF(3, 1, 1.1) },
		func() { OneMinusPowR(math.NaN(), 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid probability input")
				}
			}()
			f()
		}()
	}
}
