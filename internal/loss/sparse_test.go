package loss

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestBernoulliSparseMatchesDense pins the geometric-skip kernel against
// the dense per-receiver Bernoulli population on fixed seeds: the per-draw
// loss counts must agree with the Binomial(R, p) mean and variance, and
// losses must hit every receiver index uniformly.
func TestBernoulliSparseMatchesDense(t *testing.T) {
	const r, p, draws = 1000, 0.05, 8000
	sparse := NewBernoulliPopulation(r, p, rand.New(rand.NewSource(21)))
	dense := NewIndependentBernoulli(r, p, rand.New(rand.NewSource(22)))

	countStats := func(draw func() int) (mean, variance float64) {
		var sum, ss float64
		for i := 0; i < draws; i++ {
			c := float64(draw())
			sum += c
			ss += c * c
		}
		mean = sum / draws
		return mean, ss/draws - mean*mean
	}

	perIdx := make([]int, r)
	sparseMean, sparseVar := countStats(func() int {
		lost := sparse.DrawLost(0.04)
		for _, j := range lost {
			if j < 0 || j >= r {
				t.Fatalf("lost index %d out of range", j)
			}
			perIdx[j]++
		}
		for i := 1; i < len(lost); i++ {
			if lost[i] <= lost[i-1] {
				t.Fatalf("lost indices not strictly ascending: %v", lost)
			}
		}
		return len(lost)
	})
	denseMean, denseVar := countStats(func() int { return len(dense.DrawLost(0.04)) })

	wantMean := float64(r) * p
	wantVar := float64(r) * p * (1 - p)
	// 4-sigma tolerance on the mean of `draws` Binomial counts.
	tol := 4 * math.Sqrt(wantVar/draws)
	for name, got := range map[string]float64{"sparse": sparseMean, "dense": denseMean} {
		if math.Abs(got-wantMean) > tol {
			t.Errorf("%s per-draw mean = %g, want %g +- %g", name, got, wantMean, tol)
		}
	}
	for name, got := range map[string]float64{"sparse": sparseVar, "dense": denseVar} {
		if math.Abs(got-wantVar) > 0.1*wantVar {
			t.Errorf("%s per-draw variance = %g, want %g +- 10%%", name, got, wantVar)
		}
	}
	// Spatial uniformity: a chi-square statistic over receiver indices
	// should stay near its expectation (r-1 degrees of freedom).
	expected := sparseMean * draws / r
	chi2 := 0.0
	for _, c := range perIdx {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// chi2 ~ N(r-1, 2(r-1)) for large r; allow 5 sigma.
	if sigma := math.Sqrt(2 * float64(r-1)); math.Abs(chi2-float64(r-1)) > 5*sigma {
		t.Errorf("sparse per-index chi-square = %g, want %d +- %g", chi2, r-1, 5*sigma)
	}
}

// TestBernoulliDrawLostAmong checks the subset kernel: restricted to a
// fixed subset, per-draw loss counts must be Binomial(|among|, p), results
// must stay ascending members of the subset, and receivers outside the
// subset must never appear.
func TestBernoulliDrawLostAmong(t *testing.T) {
	const r, p, draws = 10000, 0.05, 6000
	bp := NewBernoulliPopulation(r, p, rand.New(rand.NewSource(41)))
	among := make([]int, 0, r/3)
	for j := 1; j < r; j += 3 { // every third receiver
		among = append(among, j)
	}
	member := make(map[int]bool, len(among))
	for _, j := range among {
		member[j] = true
	}

	var sum, ss float64
	for i := 0; i < draws; i++ {
		lost := bp.DrawLostAmong(0.04, among)
		for li, j := range lost {
			if !member[j] {
				t.Fatalf("draw %d: lost %d outside among", i, j)
			}
			if li > 0 && j <= lost[li-1] {
				t.Fatalf("draw %d: not strictly ascending: %v", i, lost)
			}
		}
		c := float64(len(lost))
		sum += c
		ss += c * c
	}
	mean := sum / draws
	variance := ss/draws - mean*mean
	a := float64(len(among))
	wantMean, wantVar := a*p, a*p*(1-p)
	if tol := 4 * math.Sqrt(wantVar/draws); math.Abs(mean-wantMean) > tol {
		t.Errorf("subset per-draw mean = %g, want %g +- %g", mean, wantMean, tol)
	}
	if math.Abs(variance-wantVar) > 0.1*wantVar {
		t.Errorf("subset per-draw variance = %g, want %g +- 10%%", variance, wantVar)
	}

	// Degenerate subsets.
	if lost := bp.DrawLostAmong(0.04, nil); len(lost) != 0 {
		t.Errorf("empty among lost %v", lost)
	}
	always := NewBernoulliPopulation(r, 1, rand.New(rand.NewSource(42)))
	if lost := always.DrawLostAmong(0.04, among[:7]); len(lost) != 7 {
		t.Errorf("p=1 subset lost %d, want 7", len(lost))
	}

	// Once the scratch has grown, neither draw allocates.
	if a := testing.AllocsPerRun(100, func() {
		bp.DrawLost(0.04)
		bp.DrawLostAmong(0.04, among)
	}); a != 0 {
		t.Errorf("steady-state DrawLost + DrawLostAmong allocate %v times per run, want 0", a)
	}
}

// TestBernoulliDrawStreamPinned fences the geometric-skip kernel's exact
// output: an FNV-1a hash of the first 1e5 lost indices of DrawLost and of
// DrawLostAmong under one fixed seed. Every exact-repeat ledger metric of
// the field workloads (tx_per_pkt, ctrl_per_group, completion_stretch)
// hangs on this stream, so a change that trims the kernel's constant
// factors must leave both hashes alone — or move them on purpose and
// re-measure the ledger baselines. The hashes are the amd64 values, where
// math.Log runs the assembly of math/log_amd64.s; another architecture's
// math.Log may round some draw the other way and move them.
func TestBernoulliDrawStreamPinned(t *testing.T) {
	const r, p, n = 1_000_000, 0.01, 100_000
	among := make([]int, 0, r/3+1)
	for j := 1; j < r; j += 3 {
		among = append(among, j)
	}
	for _, c := range []struct {
		name string
		draw func(bp *BernoulliPopulation) []int
		want uint64
	}{
		{"DrawLost", func(bp *BernoulliPopulation) []int { return bp.DrawLost(0.04) }, 0xa2ddd3b25b17ceee},
		{"DrawLostAmong", func(bp *BernoulliPopulation) []int { return bp.DrawLostAmong(0.04, among) }, 0x2901ad0cb39fe646},
	} {
		bp := NewBernoulliPopulation(r, p, rand.New(rand.NewSource(20260926)))
		if got := hashLost(n, func() []int { return c.draw(bp) }); got != c.want {
			t.Errorf("%s: first %d lost indices hash to %#x, want %#x: the RNG stream moved", c.name, n, got, c.want)
		}
	}
}

// hashLost returns the FNV-1a hash of the first n lost indices draw yields,
// each as a little-endian uint64.
func hashLost(n int, draw func() []int) uint64 {
	h := fnv.New64a()
	var word [8]byte
	for hashed := 0; hashed < n; {
		lost := draw()
		lost = lost[:min(len(lost), n-hashed)]
		for _, j := range lost {
			binary.LittleEndian.PutUint64(word[:], uint64(j))
			h.Write(word[:])
		}
		hashed += len(lost)
	}
	return h.Sum64()
}

// TestSkipStreamsPinned widens TestBernoulliDrawStreamPinned's fence to
// every other stream a change to the skip kernel could move: Bernoulli
// DrawLost across the figure sweeps' range of p (only p = 0.01 is pinned
// above) and out to its ends, where most skips are long (1e-4) or a draw
// loses most receivers (0.5, 0.9), DrawLostAmong at a second p,
// MarkovPopulation.DrawLost, which draws its state-0 losses through
// geoNext at a per-draw P01(dt), and FBT.DrawLost, which finds failed
// nodes with it. Same hash, same seed, same amd64 values.
func TestSkipStreamsPinned(t *testing.T) {
	const r, n, seed = 1_000_000, 100_000, 20260926
	among := make([]int, 0, r/3+1)
	for j := 1; j < r; j += 3 {
		among = append(among, j)
	}
	for _, c := range []struct {
		p     float64
		among bool
		want  uint64
	}{
		{1e-4, false, 0x9aedc7012420acb7},
		{0.001, false, 0x74b40f3c6dde8267},
		{0.05, false, 0x51e62007db9ad348},
		{0.25, false, 0xda650aa5c61d886e},
		{0.5, false, 0x14928a84388f2f84},
		{0.9, false, 0xfea1784d53f9d1a2},
		{0.05, true, 0xee9d734abb880e4e},
	} {
		bp := NewBernoulliPopulation(r, c.p, rand.New(rand.NewSource(seed)))
		draw := func() []int { return bp.DrawLost(0.04) }
		if c.among {
			draw = func() []int { return bp.DrawLostAmong(0.04, among) }
		}
		if got := hashLost(n, draw); got != c.want {
			t.Errorf("Bernoulli p=%g among=%t: first %d lost indices hash to %#x, want %#x: the RNG stream moved", c.p, c.among, n, got, c.want)
		}
	}
	mp := NewMarkovPopulation(r, 0.01, 2, 25, rand.New(rand.NewSource(seed)))
	const wantMarkov = 0x15cf71c6874e5dae
	if got := hashLost(n, func() []int { return mp.DrawLost(0.04) }); got != wantMarkov {
		t.Errorf("Markov: first %d lost indices hash to %#x, want %#x: the RNG stream moved", n, got, uint64(wantMarkov))
	}
	fbt := NewFBT(16, 0.01, rand.New(rand.NewSource(seed)))
	const wantFBT = 0x9e7503baa7e2f8ee
	if got := hashLost(n, func() []int { return fbt.DrawLost(0.04) }); got != wantFBT {
		t.Errorf("FBT: first %d lost indices hash to %#x, want %#x: the RNG stream moved", n, got, uint64(wantFBT))
	}
}

func TestBernoulliPopulationEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	never := NewBernoulliPopulation(50, 0, rng)
	if lost := never.DrawLost(0.04); len(lost) != 0 {
		t.Errorf("p=0 lost %v", lost)
	}
	always := NewBernoulliPopulation(50, 1, rng)
	if lost := always.DrawLost(0.04); len(lost) != 50 {
		t.Errorf("p=1 lost %d receivers, want 50", len(lost))
	}
	for name, f := range map[string]func(){
		"r=0":   func() { NewBernoulliPopulation(0, 0.1, rng) },
		"p=2":   func() { NewBernoulliPopulation(5, 2, rng) },
		"p=NaN": func() { NewBernoulliPopulation(5, math.NaN(), rng) },
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

// TestMarkovSparseMatchesDense pins the state-bucket Markov kernel against
// the dense per-receiver chains: per-draw loss counts must match the
// stationary mean, and the fraction of losses that repeat on the next draw
// must match P11 — the burst structure the sparse kernel must preserve.
func TestMarkovSparseMatchesDense(t *testing.T) {
	const (
		r, p      = 2000, 0.01
		meanBurst = 2.0
		pktRate   = 25.0
		dt        = 0.040
		draws     = 4000
	)
	sparse := NewMarkovPopulation(r, p, meanBurst, pktRate, rand.New(rand.NewSource(51)))
	dense := NewIndependentMarkov(r, p, meanBurst, pktRate, rand.New(rand.NewSource(52)))
	p11 := sparse.chain.P11(dt)

	type stats struct {
		mean, repeat float64
	}
	measure := func(draw func() []int) stats {
		var lossSum, repeats, prevLosses float64
		prev := make(map[int]bool)
		for i := 0; i < draws; i++ {
			lost := draw()
			for li, j := range lost {
				if li > 0 && j <= lost[li-1] {
					t.Fatalf("draw %d not strictly ascending: %v", i, lost)
				}
				if prev[j] {
					repeats++
				}
			}
			lossSum += float64(len(lost))
			prevLosses += float64(len(prev))
			for j := range prev {
				delete(prev, j)
			}
			for _, j := range lost {
				prev[j] = true
			}
		}
		return stats{mean: lossSum / draws, repeat: repeats / prevLosses}
	}

	sp := measure(func() []int { return sparse.DrawLost(dt) })
	de := measure(func() []int { return dense.DrawLost(dt) })

	wantMean := float64(r) * p
	tol := 4 * math.Sqrt(wantMean/draws) * 2 // bursts inflate count variance
	for name, got := range map[string]stats{"sparse": sp, "dense": de} {
		if math.Abs(got.mean-wantMean) > tol {
			t.Errorf("%s per-draw loss mean = %g, want %g +- %g", name, got.mean, wantMean, tol)
		}
		// ~draws*r*p repeat trials: generous 5-sigma band around P11.
		rtol := 5 * math.Sqrt(p11*(1-p11)/(draws*wantMean))
		if math.Abs(got.repeat-p11) > rtol {
			t.Errorf("%s burst continuation = %g, want P11 = %g +- %g", name, got.repeat, p11, rtol)
		}
	}
}

// BenchmarkBernoulliDrawLost measures the sparse draw at the field's scale
// (R = 10^6) across the figure sweeps' loss range, per LOST receiver: the
// unit the per-packet engines (sim, and the field in Exact mode) pay in.
func BenchmarkBernoulliDrawLost(b *testing.B) {
	for _, p := range []float64{0.001, 0.01, 0.05} {
		b.Run(fmt.Sprintf("p=%g", p), func(b *testing.B) {
			bp := NewBernoulliPopulation(1_000_000, p, rand.New(rand.NewSource(1)))
			bp.DrawLost(0.04) // size the scratch
			lost := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lost += len(bp.DrawLost(0.04))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lost), "ns/lost")
		})
	}
}
