// Package numeric provides the numerically stable primitives needed by the
// paper's closed-form models: log-space binomial coefficients, binomial and
// negative-binomial probabilities, stable evaluation of 1-(1-x)^R for
// receiver populations R up to 10^6, and truncated evaluation of the
// infinite sums E[X] = sum_m (1 - P(X <= m)) that define every expected
// transmission count in the paper.
package numeric

import (
	"fmt"
	"math"
)

// DefaultTol is the default additive truncation tolerance for infinite
// sums. Terms are monotonically decreasing tails of probability
// distributions; truncating when a term falls below DefaultTol bounds the
// absolute error of the sum by DefaultTol * (geometric tail factor), far
// below the 3-digit resolution of the paper's figures.
const DefaultTol = 1e-12

// maxSumTerms caps sum lengths to guard against non-converging inputs.
const maxSumTerms = 1 << 22

// LogBinomial returns ln C(n, k). It panics for invalid arguments and
// returns -Inf when k > n would make the coefficient zero by convention.
func LogBinomial(n, k int) float64 {
	if n < 0 || k < 0 {
		panic(fmt.Sprintf("numeric: LogBinomial(%d,%d) with negative argument", n, k))
	}
	if k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// Binomial returns C(n,k) as a float64 (may overflow to +Inf for huge n).
func Binomial(n, k int) float64 {
	lb := LogBinomial(n, k)
	if math.IsInf(lb, -1) {
		return 0
	}
	return math.Exp(lb)
}

// BinomialPMF returns P(X = k) for X ~ Bin(n, p), computed in log space.
func BinomialPMF(n int, k int, p float64) float64 {
	checkProb(p)
	if k < 0 || k > n {
		return 0
	}
	if p == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lp := LogBinomial(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lp)
}

// BinomialCDF returns P(X <= k) for X ~ Bin(n, p).
func BinomialCDF(n, k int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	// Sum the smaller tail for accuracy.
	var s float64
	if float64(k) <= float64(n)*p {
		for i := 0; i <= k; i++ {
			s += BinomialPMF(n, i, p)
		}
		return math.Min(s, 1)
	}
	for i := k + 1; i <= n; i++ {
		s += BinomialPMF(n, i, p)
	}
	return math.Max(1-s, 0)
}

// BinomialTail returns P(X >= k) for X ~ Bin(n, p).
func BinomialTail(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	return math.Max(0, math.Min(1, 1-BinomialCDF(n, k-1, p)))
}

// PowN returns x^n for integer n >= 0 by binary exponentiation; exact for
// the small bases used in the models and faster than math.Pow for small n.
func PowN(x float64, n int) float64 {
	if n < 0 {
		panic(fmt.Sprintf("numeric: PowN with n = %d", n))
	}
	result := 1.0
	for n > 0 {
		if n&1 == 1 {
			result *= x
		}
		x *= x
		n >>= 1
	}
	return result
}

// OneMinusPowR returns 1 - (1-x)^R computed stably for tiny x and large R
// (the "at least one of R receivers still misses the packet" probability).
func OneMinusPowR(x float64, r int) float64 {
	checkProb(x)
	if r < 0 {
		panic(fmt.Sprintf("numeric: OneMinusPowR with R = %d", r))
	}
	if x == 1 {
		if r == 0 {
			return 0
		}
		return 1
	}
	return -math.Expm1(float64(r) * math.Log1p(-x))
}

// SumCCDF evaluates sum_{m=from}^{inf} ccdfTail(m) where ccdfTail(m) is a
// non-negative, eventually geometrically decreasing sequence (typically
// 1 - P(X <= m)). Summation stops when a term drops below tol. For the
// standard expectation identity E[X] = sum_{m=0}^{inf} (1 - P(X <= m)),
// call SumCCDF(0, tail, tol).
func SumCCDF(from int, ccdfTail func(m int) float64, tol float64) float64 {
	if tol <= 0 {
		tol = DefaultTol
	}
	var s float64
	for m := from; m < from+maxSumTerms; m++ {
		t := ccdfTail(m)
		if t < 0 {
			// Tolerate tiny negative round-off.
			if t < -1e-9 {
				panic(fmt.Sprintf("numeric: SumCCDF term %d is %g < 0", m, t))
			}
			t = 0
		}
		s += t
		if t < tol {
			return s
		}
	}
	panic("numeric: SumCCDF did not converge")
}

func checkProb(p float64) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		panic(fmt.Sprintf("numeric: probability %g out of [0,1]", p))
	}
}
