package loss

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// chi2Max is the 99.9 % quantile of chi-squared on df degrees of freedom,
// by the Wilson–Hilferty cube (within ~1 % from df = 3 up).
func chi2Max(df int) float64 {
	v := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-v+3.09*math.Sqrt(v), 3)
}

// chi2Equal is the two-sample chi-squared statistic for two count vectors
// of equal exposure: each bin's counts are independent and equal in
// expectation, so (a-b)^2/(a+b) is chi-squared with one degree of freedom
// per non-empty bin.
func chi2Equal(a, b []int) (chi2 float64, df int) {
	for i := range a {
		if n := a[i] + b[i]; n > 0 {
			d := float64(a[i] - b[i])
			chi2 += d * d / float64(n)
			df++
		}
	}
	return chi2, df
}

// binomialPmf returns Bin(n, q) on [lo, lo+len) where the rest of the mass
// is below 1e-15: log ratios from lo, normalised by their sum, so it stays
// exact to rounding at any n.
func binomialPmf(n int, q float64) (lo int, pmf []float64) {
	mean, sd := float64(n)*q, math.Sqrt(float64(n)*q*(1-q))
	lo = max(0, int(mean-9*sd)-5)
	hi := min(n, int(mean+9*sd)+5)
	l := make([]float64, hi-lo+1)
	for x := lo; x < hi; x++ {
		l[x-lo+1] = l[x-lo] + math.Log(float64(n-x)/float64(x+1)*q/(1-q))
	}
	top := math.Inf(-1)
	for _, v := range l {
		top = max(top, v)
	}
	pmf = make([]float64, len(l))
	sum := 0.0
	for i, v := range l {
		pmf[i] = math.Exp(v - top)
		sum += pmf[i]
	}
	for i := range pmf {
		pmf[i] /= sum
	}
	return lo, pmf
}

// TestBinomialMatchesPmf holds binomial to the exact pmf by chi-squared at
// the 99.9 % quantile, 20 000 draws per case at a fixed seed, over cells of
// ~1/20 of the mass each: inversion (mean < 10) and BTRS on both sides of
// the switch, q > 1/2 on both, and n = 2^40 at means 1 and ~10^9.
func TestBinomialMatchesPmf(t *testing.T) {
	const draws, cells = 20_000, 20
	for i, c := range []struct {
		n int
		q float64
	}{
		{30, 0.2}, {49, 0.2}, {51, 0.2}, {1000, 0.3}, {64, 0.5},
		{20, 0.85}, {200, 0.7}, {1 << 40, 1e-12}, {1 << 40, 1.0 / (1 << 30)}, {1 << 40, 1e-3},
	} {
		lo, pmf := binomialPmf(c.n, c.q)
		// Cell edges: close a cell once it holds 1/cells of the mass.
		cellOf := make([]int, len(pmf))
		var want []float64
		acc := 0.0
		for x, v := range pmf {
			if acc >= 1.0/cells {
				want = append(want, acc)
				acc = 0
			}
			acc += v
			cellOf[x] = len(want)
		}
		want = append(want, acc)
		got := make([]int, len(want))
		rng := rand.New(rand.NewSource(int64(40 + i)))
		for range draws {
			x := binomial(rng, c.n, c.q)
			if x < 0 || x > c.n {
				t.Fatalf("n=%d q=%g: draw %d out of range", c.n, c.q, x)
			}
			got[cellOf[min(max(x-lo, 0), len(pmf)-1)]]++
		}
		chi2 := 0.0
		for j, w := range want {
			d := float64(got[j]) - w*draws
			chi2 += d * d / (w * draws)
		}
		df := len(want) - 1
		if df < 1 || chi2 > chi2Max(df) {
			t.Errorf("n=%d q=%g: chi2 = %.1f on %d df (99.9 %%: %.1f)", c.n, c.q, chi2, df, chi2Max(df))
		}
	}
	// Degenerate and out-of-range arguments.
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{0, 0.5, 0}, {-3, 0.5, 0}, {10, 0, 0}, {10, -1, 0}, {10, math.NaN(), 0}, {10, 1, 10}, {1 << 62, 1, 1 << 62}} {
		if got := binomial(rng, c.n, c.q); got != c.want {
			t.Errorf("binomial(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// TestBinomialStreamPinned fences binomial's exact output: the FNV-1a hash
// of 1 000 draws at each (n, q) of a grid that crosses the inversion/BTRS
// switch, the q > 1/2 reflection and n = 2^40 and 2^62, under one seed.
// Every field_1e6 exact-repeat ledger metric hangs on it.
func TestBinomialStreamPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	h := fnv.New64a()
	var word [8]byte
	for _, n := range []int{1, 7, 22, 2000, 1_000_000, 1 << 40, 1 << 62} {
		for _, q := range []float64{1e-9, 0.0014, 0.01, 0.3, 0.5, 0.93} {
			for range 1000 {
				binary.LittleEndian.PutUint64(word[:], uint64(binomial(rng, n, q)))
				h.Write(word[:])
			}
		}
	}
	const want = 0x80a052841551503e
	if got := h.Sum64(); got != want {
		t.Errorf("binomial over the grid hashes to %#x, want %#x: the stream moved", got, uint64(want))
	}
}

// perReceiverRound is what DrawRound replaces: r receivers each drawing
// n Bernoulli(p) trials, binned by how many packets they hold, below k.
func perReceiverRound(rng *rand.Rand, r, n, k int, p float64, bins []int) {
	for range r {
		held := 0
		for range n {
			if rng.Float64() >= p {
				held++
			}
		}
		if held < k {
			bins[held]++
		}
	}
}

// TestDrawRoundMatchesPerReceiverDraws pins DrawRound against R = 2000
// receivers drawn one by one: over 400 rounds the summed bins agree by
// two-sample chi-squared at the 99.9 % quantile, for field_1e6's shape at
// p = 5 % (n = 22, k = 20: ~9 % short, bins 0..19), and for a round
// shorter than k (n = 10, k = 20: everyone short). Cells below 5 expected
// receivers are pooled.
func TestDrawRoundMatchesPerReceiverDraws(t *testing.T) {
	const r, rounds = 2000, 400
	for _, c := range []struct {
		n, k int
		p    float64
	}{{22, 20, 0.05}, {10, 20, 0.3}} {
		t.Run(fmt.Sprintf("n=%d/k=%d/p=%g", c.n, c.k, c.p), func(t *testing.T) {
			var ref, got [65]int
			refRng := rand.New(rand.NewSource(61))
			pop := NewBernoulliPopulation(r, c.p, rand.New(rand.NewSource(62)))
			var bins [65]int
			for range rounds {
				perReceiverRound(refRng, r, c.n, c.k, c.p, ref[:])
				short := pop.DrawRound(c.n, c.k, &bins)
				sum := 0
				for cc, v := range bins {
					if v < 0 || (v > 0 && cc >= min(c.k, c.n+1)) {
						t.Fatalf("bins[%d] = %d", cc, v)
					}
					got[cc] += v
					sum += v
				}
				if sum != short {
					t.Fatalf("DrawRound returned %d short, bins sum to %d", short, sum)
				}
			}
			// Pool the sparse low cells into the first cell with mass.
			a, b := ref[:c.k], got[:c.k]
			for cc := 0; cc+1 < c.k && a[cc]+b[cc] < 10; cc++ {
				a[cc+1], b[cc+1], a[cc], b[cc] = a[cc+1]+a[cc], b[cc+1]+b[cc], 0, 0
			}
			chi2, df := chi2Equal(a, b)
			t.Logf("chi2 %.1f on %d df; per-receiver %v, DrawRound %v", chi2, df, a, b)
			if df < 2 || chi2 > chi2Max(df) {
				t.Errorf("chi2 = %.1f on %d df (99.9 %%: %.1f)", chi2, df, chi2Max(df))
			}
		})
	}
}

// TestDrawRoundEdgeCases pins the rounds whose answer is certain: p = 0
// leaves nobody short unless n < k, p = 1 leaves everybody at 0, n < k
// leaves everybody short, k = 0 nobody, and stale bins are cleared.
func TestDrawRoundEdgeCases(t *testing.T) {
	const r = 40
	for _, c := range []struct {
		name    string
		p       float64
		n, k    int
		want    int // receivers short
		wantBin int // the one bin holding them, or -1 for a random spread
	}{
		{"p=0", 0, 22, 20, 0, -1},
		{"p=0 n<k", 0, 10, 20, r, 10},
		{"p=1", 1, 22, 20, r, 0},
		{"p=1 k=1", 1, 64, 1, r, 0},
		{"n<k", 0.5, 5, 20, r, -1},
		{"n=0", 0.5, 0, 8, r, 0},
		{"k=0", 0.5, 22, 0, 0, -1},
	} {
		pop := NewBernoulliPopulation(r, c.p, rand.New(rand.NewSource(5)))
		bins := [65]int{3, 1, 4, 1, 5, 9, 2, 6, 64: 5}
		short := pop.DrawRound(c.n, c.k, &bins)
		sum := 0
		for cc, v := range bins {
			sum += v
			if v != 0 && (cc >= min(c.k, c.n+1) || (c.wantBin >= 0 && cc != c.wantBin)) {
				t.Errorf("%s: bins[%d] = %d", c.name, cc, v)
			}
		}
		if short != c.want || sum != c.want {
			t.Errorf("%s: %d short, bins sum %d, want %d", c.name, short, sum, c.want)
		}
	}
	pop := NewBernoulliPopulation(r, 0.5, rand.New(rand.NewSource(5)))
	if got := pop.DrawLostCount(0); got != 0 {
		t.Errorf("DrawLostCount(0) = %d", got)
	}
	if got := NewBernoulliPopulation(r, 1, nil).DrawLostCount(17); got != 17 {
		t.Errorf("p=1: DrawLostCount(17) = %d", got)
	}
	for _, c := range []int{-1, 0, 22, 30} {
		want := uint64(0)
		if c >= 22 {
			want = 1<<22 - 1
		}
		if got := pop.DrawMissed(1<<22-1, c); got != want {
			t.Errorf("DrawMissed(22 seqs, %d) = %#x, want %#x", c, got, want)
		}
	}
}

// TestDrawMissedIsUniform checks that DrawMissed picks c of the sent seqs,
// each equally often: 20 000 3-subsets of 22 seqs spread over [0, 33),
// per-seq counts by chi-squared at the 99.9 % quantile.
func TestDrawMissedIsUniform(t *testing.T) {
	var sent uint64
	var seqs []int
	for s := 0; s < 33; s++ {
		if s%3 != 0 {
			sent |= 1 << s
			seqs = append(seqs, s)
		}
	}
	const draws, c = 20_000, 3
	pop := NewBernoulliPopulation(10, 0.5, rand.New(rand.NewSource(9)))
	count := make([]float64, len(seqs))
	for range draws {
		bm := pop.DrawMissed(sent, c)
		if bm&^sent != 0 || bits.OnesCount64(bm) != c {
			t.Fatalf("DrawMissed = %#x: not %d of %#x", bm, c, sent)
		}
		for i, s := range seqs {
			count[i] += float64(bm >> s & 1)
		}
	}
	want := float64(draws*c) / float64(len(seqs))
	chi2 := 0.0
	for _, v := range count {
		chi2 += (v - want) * (v - want) / want
	}
	if df := len(seqs) - 1; chi2 > chi2Max(df) {
		t.Errorf("per-seq counts: chi2 = %.1f on %d df (99.9 %%: %.1f): %v", chi2, df, chi2Max(df), count)
	}
}

// TestDrawRoundStreamPinned fences the field's whole-group draws: the
// FNV-1a hash, under one seed, of 2 000 field_1e6 rounds (R = 1e6, p = 1 %,
// n = 22, k = 20), each followed by one fresh repair's DrawLostCount per
// non-empty bin and one DrawMissed per bin. Every field_1e6 exact-repeat
// ledger metric hangs on it. Also 0 allocs per round.
func TestDrawRoundStreamPinned(t *testing.T) {
	pop := NewBernoulliPopulation(1_000_000, 0.01, rand.New(rand.NewSource(20261018)))
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	var bins [65]int
	round := func() {
		put(uint64(pop.DrawRound(22, 20, &bins)))
		for c, m := range bins[:20] {
			put(uint64(m))
			if m > 0 {
				put(uint64(pop.DrawLostCount(m)))
				put(pop.DrawMissed(1<<22-1, 22-c))
			}
		}
	}
	for range 2000 {
		round()
	}
	const want = 0xad4b2b3208d53de2
	if got := h.Sum64(); got != want {
		t.Errorf("2000 field_1e6 rounds hash to %#x, want %#x: the stream moved", got, uint64(want))
	}
	if a := testing.AllocsPerRun(5, round); a != 0 {
		t.Errorf("%v allocs per round, want 0", a)
	}
}
