package rse

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"rmfec/internal/gf256"
)

// plan is the test's own statement of which shards a decode uses: the
// missing data indices, and every present data shard followed by the first
// len(missing) present parities. ok is false when the pattern leaves fewer
// than k shards.
func plan(c *Code, present []bool) (missing, chosen []int, ok bool) {
	for i := 0; i < c.K(); i++ {
		if present[i] {
			chosen = append(chosen, i)
		} else {
			missing = append(missing, i)
		}
	}
	for i := c.K(); i < c.N() && len(chosen) < c.K(); i++ {
		if present[i] {
			chosen = append(chosen, i)
		}
	}
	return missing, chosen, len(chosen) == c.K()
}

// generator returns the full n x k matrix G = [I; P] of c.
func generator(c *Code) *gf256.Matrix {
	g := gf256.NewMatrix(c.N(), c.K())
	for i := 0; i < c.K(); i++ {
		g.Set(i, i, 1)
	}
	copy(g.Data[c.K()*c.K():], c.parity.Data)
	return g
}

// checkPattern holds one erasure pattern against the parent's algebra:
// decodeRows must equal the missing rows of the full k x k inverse of the
// chosen generator rows, and Reconstruct must return ref's bytes through
// nil slots and through recycled ones.
func checkPattern(t *testing.T, c *Code, g *gf256.Matrix, ref [][]byte, present []bool) {
	t.Helper()
	missing, chosen, ok := plan(c, present)
	shards := make([][]byte, c.N())
	for _, recycled := range []bool{false, true} {
		for i := range shards {
			shards[i] = append([]byte(nil), ref[i]...)
			if !present[i] && recycled {
				shards[i] = shards[i][:0]
			} else if !present[i] {
				shards[i] = nil
			}
		}
		err := c.Reconstruct(shards)
		if !ok {
			if err == nil {
				t.Fatalf("present %v: decoded from fewer than k shards", present)
			}
			return
		}
		if err != nil {
			t.Fatalf("present %v: %v", present, err)
		}
		for i := 0; i < c.K(); i++ {
			if !bytes.Equal(shards[i], ref[i]) {
				t.Fatalf("present %v recycled %v: data shard %d wrong", present, recycled, i)
			}
		}
	}
	if len(missing) == 0 {
		return
	}
	inv, err := g.SubMatrix(chosen).Invert()
	if err != nil {
		t.Fatalf("present %v: reference inversion: %v", present, err)
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	rows, err := c.decodeRows(sc, missing, chosen)
	if err != nil {
		t.Fatalf("present %v: %v", present, err)
	}
	l, w := len(missing), len(missing)+c.K()
	for j, m := range missing {
		if got, want := rows[j*w+l:(j+1)*w], inv.Row(m); !bytes.Equal(got, want) {
			t.Fatalf("present %v: decode row for shard %d = %v, full inverse has %v", present, m, got, want)
		}
	}
}

// TestDecodeRowsExhaustive runs every subset of present shards of two small
// codes, undecodable ones included.
func TestDecodeRowsExhaustive(t *testing.T) {
	for _, p := range []struct{ k, h int }{{4, 3}, {7, 4}} {
		c := MustNew(p.k, p.h)
		g, ref := generator(c), makeBlock(t, c, 40, int64(p.k))
		present := make([]bool, c.N())
		for mask := 0; mask < 1<<c.N(); mask++ {
			for i := range present {
				present[i] = mask>>i&1 == 1
			}
			checkPattern(t, c, g, ref, present)
		}
	}
}

// TestDecodeRowsSeeded draws decodable patterns at the benchmark's
// operating point, a wide code and the k = 1 repetition code. The data
// loss count l cycles through 1..min(k, h), so l = 1, l = h and (where
// h >= k) l = k all occur; parities are then lost at random positions
// while at least l stay, so the present ones are interleaved with lost
// ones and usually outnumber the l that are used.
func TestDecodeRowsSeeded(t *testing.T) {
	patterns := 2000
	if testing.Short() {
		patterns = 200
	}
	for _, p := range []struct{ k, h int }{{20, 20}, {100, 28}, {1, 5}} {
		c := MustNew(p.k, p.h)
		g, ref := generator(c), makeBlock(t, c, 40, int64(p.k))
		rng := rand.New(rand.NewSource(int64(p.k*1000 + p.h)))
		present := make([]bool, c.N())
		for n := 0; n < patterns; n++ {
			for i := range present {
				present[i] = true
			}
			l := 1 + n%min(p.k, p.h)
			for _, i := range rng.Perm(p.k)[:l] {
				present[i] = false
			}
			for _, j := range rng.Perm(p.h)[:rng.Intn(p.h-l+1)] {
				present[p.k+j] = false
			}
			checkPattern(t, c, g, ref, present)
		}
	}
}

// TestReconstructCyclingPatternsAllocs pins that no erasure pattern costs
// an allocation, not only a repeated one: it walks the 190 two-erasure
// patterns of k = 20 with recycled output buffers.
func TestReconstructCyclingPatternsAllocs(t *testing.T) {
	c := MustNew(20, 20)
	ref := makeBlock(t, c, 256, 21)
	shards := make([][]byte, c.N())
	for i := range shards {
		shards[i] = append([]byte(nil), ref[i]...)
	}
	i, j := 0, 1
	allocs := testing.AllocsPerRun(2*190, func() {
		shards[i], shards[j] = shards[i][:0], shards[j][:0]
		if err := c.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
		if j++; j == c.K() {
			if i++; i == c.K()-1 {
				i = 0
			}
			j = i + 1
		}
	})
	if allocs != 0 {
		t.Fatalf("Reconstruct over cycling patterns allocated %.2f times per run, want 0", allocs)
	}
	for i := 0; i < c.K(); i++ {
		if !bytes.Equal(shards[i], ref[i]) {
			t.Fatalf("data shard %d corrupted", i)
		}
	}
}

// TestReconstructConcurrentPatterns has eight goroutines decode different
// patterns on one Code; the scratch free-list is the only state they
// share, and the race detector watches it.
func TestReconstructConcurrentPatterns(t *testing.T) {
	c := MustNew(20, 20)
	ref := makeBlock(t, c, 128, 22)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			shards := make([][]byte, c.N())
			for n := 0; n < 200; n++ {
				for i := range shards {
					shards[i] = append(shards[i][:0], ref[i]...)
				}
				for _, i := range rng.Perm(c.N())[:1+rng.Intn(c.H())] {
					shards[i] = shards[i][:0]
				}
				if err := c.Reconstruct(shards); err != nil {
					t.Errorf("worker %d decode %d: %v", w, n, err)
					return
				}
				for i := 0; i < c.K(); i++ {
					if !bytes.Equal(shards[i], ref[i]) {
						t.Errorf("worker %d decode %d: data shard %d wrong", w, n, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
