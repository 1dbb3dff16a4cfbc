// Package mcrun executes independent Monte-Carlo points concurrently with
// results that are byte-identical to a serial run. The engine packages
// (internal/sim, internal/loss, internal/figures) stay single-threaded and
// goroutine-free under rmlint; all parallelism lives here, ABOVE the
// engines: each (figure, series, point) derives an independent RNG seed
// from the root seed via DeriveSeed, workers run the serial engines on
// disjoint state, and results merge in fixed point order. The output is
// therefore a pure function of (root seed, point labels), independent of
// worker count and scheduling.
package mcrun

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// DeriveSeed maps a root seed and a point label (e.g.
// "fig11/layered-fbt/d=9") to an independent engine seed: the label is
// absorbed with FNV-1a, the root seed is folded in with the golden-ratio
// increment of SplitMix64, and the SplitMix64 finalizer scrambles the
// result. Distinct labels give statistically independent streams for any
// root, and the same (root, label) pair always yields the same seed — the
// property that makes parallel runs reproducible.
func DeriveSeed[L string | []byte](root int64, label L) int64 {
	h := uint64(14695981039346656037) // FNV offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211 // FNV prime
	}
	z := h + uint64(root)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// FirstInt63n returns rand.New(rand.NewSource(seed)).Int63n(n), the first
// draw of a freshly seeded source, without seeding its 607-word register.
// The source's first Int63 is vec[333] + vec[606] (its feed and tap start
// there), and vec[i] is three consecutive outputs of the seeding LCG
// x <- 48271 x mod (2^31 - 1), at steps 21 + 3i .. 23 + 3i from the reduced
// seed, XORed with one word of math/rand's rngCooked table. So the two
// words are six jumps of the LCG, and only a first draw that Int63n
// rejects needs the real source. n must be positive.
func FirstInt63n(seed, n int64) int64 {
	if n <= 0 {
		panic("mcrun: FirstInt63n n <= 0")
	}
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311 // math/rand's stand-in for a zero seed
	}
	word := func(j int) uint64 {
		x := uint64(seed)
		w := x * seedJumps[j][0] % seedMod << 40
		w ^= x * seedJumps[j][1] % seedMod << 20
		w ^= x * seedJumps[j][2] % seedMod
		return w ^ cookedWords[j]
	}
	v := int64((word(0) + word(1)) & (1<<63 - 1))
	if n&(n-1) == 0 {
		return v & (n - 1)
	}
	if v > 1<<63-1-int64((1<<63)%uint64(n)) {
		return rand.New(rand.NewSource(seed)).Int63n(n)
	}
	return v % n
}

// seedMod is the modulus of math/rand's seeding LCG.
const seedMod = 1<<31 - 1

// cookedWords are rngCooked[333] and rngCooked[606] of math/rand, whose
// seeded streams the Go 1 compatibility promise keeps fixed.
var cookedWords = [2]uint64{0xbfb2f4d968b759c3, 0x39a00a3a31c025c6}

// seedJumps[j] are 48271^s mod (2^31 - 1) for the LCG steps s that make
// vec[333] (j = 0) and vec[606] (j = 1): the LCG's own outputs from x = 1.
var seedJumps = func() (j [2][3]uint64) {
	x := uint64(1)
	for s := 1; s <= 23+3*606; s++ {
		x = x * 48271 % seedMod
		for w, first := range [2]int{21 + 3*333, 21 + 3*606} {
			if k := s - first; k >= 0 && k < 3 {
				j[w][k] = x
			}
		}
	}
	return j
}()

// Run executes the jobs on at most workers goroutines and returns their
// results in job order. workers < 1 means runtime.GOMAXPROCS(0). Each job
// must be self-contained (own RNG, no shared mutable state); under that
// contract the returned slice is identical for every workers value, so
// callers may treat parallelism as a pure speed knob.
func Run[T any](workers int, jobs []func() T) []T {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]T, len(jobs))
	if workers <= 1 {
		for i, job := range jobs {
			out[i] = job()
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = jobs[i]()
			}
		}()
	}
	wg.Wait()
	return out
}
