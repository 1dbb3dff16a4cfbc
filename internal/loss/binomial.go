package loss

import (
	"math"
	"math/rand"
)

// binomial returns an exact Binomial(n, q) variate for 0 <= n <= 2^62: the
// number of n independent Bernoulli(q) trials that succeed. Below a mean of
// 10 it inverts the CDF by sequential search from 0; above it, Hörmann's
// BTRS transformed rejection (1993). q > 1/2 draws the failures instead.
func binomial(rng *rand.Rand, n int, q float64) int {
	switch {
	case n <= 0 || !(q > 0): // NaN too
		return 0
	case q >= 1:
		return n
	case q > 0.5:
		return n - binomial(rng, n, 1-q)
	case float64(n)*q < 10:
		return invertBinomial(rng, n, q)
	}
	return btrs(rng, n, q)
}

// invertBinomial is sequential-search inversion: one uniform, walked down
// the pmf from 0 by its ratio recurrence, ~n·q steps. A uniform that
// rounding carries past the pmf's mass is drawn again.
func invertBinomial(rng *rand.Rand, n int, q float64) int {
	r, f0 := q/(1-q), math.Exp(float64(n)*math.Log1p(-q))
	for {
		u, f := rng.Float64(), f0
		for x := 0; f > 0; x++ {
			if u < f {
				return x
			}
			u -= f
			f *= r * float64(n-x) / float64(x+1) // 0 once x = n
		}
	}
}

// btrs is Hörmann's BTRS for n·q >= 10, q <= 1/2. Its acceptance test
// compares log f(k)/f(m), m the mode, in Stirling-tail form, as
// TensorFlow's random_binomial takes it: every term stays O(1) or is a
// log1p, where differences of math.Lgamma lose ~10^-3 at n = 10^12.
func btrs(rng *rand.Rand, n int, q float64) int {
	nf, r := float64(n), q/(1-q)
	spq := math.Sqrt(nf * q * (1 - q))
	b := 1.15 + 2.53*spq
	a, c, vr, alpha := -0.0873+0.0248*b+0.01*q, nf*q+0.5, 0.92-4.2/b, (2.83+5.1/b)*spq
	m := math.Floor((nf + 1) * q) // the mode
	hm := (m+0.5)*math.Log((m+1)/(r*(nf-m+1))) + stirlingTail(m) + stirlingTail(nf-m)
	for {
		u, v := rng.Float64()-0.5, rng.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if k < 0 || k > nf {
			continue
		}
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		v = math.Log(v * alpha / (a/(us*us) + b))
		if v <= hm+(nf+1)*math.Log1p((k-m)/(nf-k+1))+(k+0.5)*math.Log(r*(nf-k+1)/(k+1))-
			stirlingTail(k)-stirlingTail(nf-k) {
			return int(k)
		}
	}
}

// stirlingTail is log k! less its Stirling approximation
// (x−½)·log x − x + ½·log 2π, x = k+1: by math.Lgamma below 10, where the
// series (1/12 − 1/360·x⁻² + 1/1260·x⁻⁴)/x is not yet exact, the series
// above.
func stirlingTail(k float64) float64 {
	x := k + 1
	if k < 10 {
		lg, _ := math.Lgamma(x)
		return lg - (x-0.5)*math.Log(x) + x - 0.5*math.Log(2*math.Pi)
	}
	return (1.0/12 - (1.0/360-1.0/1260/(x*x))/(x*x)) / x
}
