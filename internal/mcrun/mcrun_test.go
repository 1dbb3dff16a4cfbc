package mcrun

import (
	"math"
	"math/rand"
	"testing"
)

func TestDeriveSeedDistinctAndStable(t *testing.T) {
	labels := []string{"", "a", "b", "fig11/noFEC/d=0", "fig11/noFEC/d=1",
		"fig11/layered/d=0", "fig15/noFEC/r=100", "fig15/noFEC/r=1000"}
	seen := map[int64]string{}
	for _, l := range labels {
		s := DeriveSeed(1997, l)
		if prev, dup := seen[s]; dup {
			t.Errorf("labels %q and %q collide at seed %d", prev, l, s)
		}
		seen[s] = l
		if again := DeriveSeed(1997, l); again != s {
			t.Errorf("DeriveSeed(1997, %q) unstable: %d then %d", l, s, again)
		}
	}
	// Different roots must move every label's seed.
	for _, l := range labels {
		if DeriveSeed(1, l) == DeriveSeed(2, l) {
			t.Errorf("label %q ignores the root seed", l)
		}
	}
}

func TestRunOrderIndependentOfWorkers(t *testing.T) {
	// Each job burns a worker-visible amount of RNG state; the merged
	// output must not depend on scheduling.
	mkJobs := func() []func() float64 {
		jobs := make([]func() float64, 100)
		for i := range jobs {
			i := i
			jobs[i] = func() float64 {
				rng := rand.New(rand.NewSource(DeriveSeed(42, string(rune('A'+i%26))+"/x")))
				sum := 0.0
				for n := 0; n < 1000+i*17; n++ {
					sum += rng.Float64()
				}
				return sum
			}
		}
		return jobs
	}
	serial := Run(1, mkJobs())
	for _, workers := range []int{2, 4, 8, 0} {
		got := Run(workers, mkJobs())
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: result[%d] = %v, serial %v", workers, i, got[i], serial[i])
			}
		}
	}
}

func TestRunEmptyAndSmall(t *testing.T) {
	if got := Run[int](4, nil); len(got) != 0 {
		t.Errorf("empty job list returned %v", got)
	}
	got := Run(8, []func() int{func() int { return 7 }})
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("single job returned %v", got)
	}
}

// TestFirstInt63nMatchesSource holds the closed form to the seeded source
// it replaces, draw for draw: 10^5 seeds spread over the whole int64 range
// plus the edges of the seed reduction (0, multiples of 2^31 - 1, negative
// seeds, math.MinInt64, math.MaxInt64), at slot widths that take Int63n's
// mask path (powers of two), its rejection path (n just past 2^62, where
// half the first draws are rejected) and its plain modulus.
func TestFirstInt63nMatchesSource(t *testing.T) {
	const mod = 1<<31 - 1
	seeds := []int64{0, 1, -1, mod, -mod, 2 * mod, -2 * mod, mod - 1, mod + 1, 89482311,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	edges := len(seeds) // each edge seed meets every n
	count := 100_000
	if testing.Short() {
		count = 10_000 // the race tier
	}
	rng := rand.New(rand.NewSource(20261017))
	for len(seeds) < count {
		seeds = append(seeds, int64(rng.Uint64()), rng.Int63n(4*mod)-2*mod)
	}
	ns := []int64{1, 2, 3, 7, 1 << 20, 10_000_000, 1<<62 + 1, 1<<63 - 1, 1 << 62}
	rejected := 0
	for i, s := range seeds {
		for j, n := range ns {
			if i >= edges && j != i%len(ns) {
				continue
			}
			want := rand.New(rand.NewSource(s)).Int63n(n)
			if got := FirstInt63n(s, n); got != want {
				t.Fatalf("FirstInt63n(%d, %d) = %d, rand.NewSource gives %d", s, n, got, want)
			}
			if n == 1<<62+1 && rand.New(rand.NewSource(s)).Int63() > 1<<62 {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no seed exercised the rejection fallback")
	}
}
