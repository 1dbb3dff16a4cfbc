package rse

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rmfec/internal/gf16"
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

// genRow returns row i of c's generator G = [I; P] as symbols.
func genRow(c *Code, i int) []uint16 {
	k := c.K()
	row := make([]uint16, k)
	switch {
	case i < k:
		row[i] = 1
	case c.wide:
		copy(row, c.p16[(i-k)*k:])
	default:
		for j := range row {
			row[j] = uint16(c.p8[(i-k)*k+j])
		}
	}
	return row
}

// fullInverse inverts the k chosen generator rows of c by direct
// elimination over the whole k x k matrix (gf256.Matrix.Invert, or
// gf16.SolveSmall on [G_chosen | I]), rows as symbols.
func fullInverse(t *testing.T, c *Code, chosen []int) [][]uint16 {
	t.Helper()
	k := c.K()
	inv := make([][]uint16, k)
	if c.wide {
		m := make([]uint16, k*2*k)
		for r, idx := range chosen {
			copy(m[r*2*k:], genRow(c, idx))
			m[r*2*k+k+r] = 1
		}
		if err := gf16.SolveSmall(m, k, 2*k); err != nil {
			t.Fatalf("chosen %v: reference inversion: %v", chosen, err)
		}
		for r := range inv {
			inv[r] = m[r*2*k+k : (r+1)*2*k]
		}
		return inv
	}
	g := gf256.NewMatrix(k, k)
	for r, idx := range chosen {
		for j, v := range genRow(c, idx) {
			g.Set(r, j, byte(v))
		}
	}
	gi, err := g.Invert()
	if err != nil {
		t.Fatalf("chosen %v: reference inversion: %v", chosen, err)
	}
	for r := range inv {
		inv[r] = make([]uint16, k)
		for j, v := range gi.Row(r) {
			inv[r][j] = uint16(v)
		}
	}
	return inv
}

// checkPattern holds one erasure pattern against direct linear algebra:
// decodeRows must equal the missing rows of the full k x k inverse of the
// chosen generator rows, and Reconstruct must return ref's bytes through
// nil slots and through recycled ones.
func checkPattern(t *testing.T, c *Code, ref [][]byte, present []bool) {
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
	inv := fullInverse(t, c, chosen)
	sc := c.getScratch()
	defer c.putScratch(sc)
	if err := c.decodeRows(sc, missing, chosen); err != nil {
		t.Fatalf("present %v: %v", present, err)
	}
	l, w := len(missing), len(missing)+c.K()
	for j, m := range missing {
		got := make([]uint16, c.K())
		for r := range got {
			if c.wide {
				got[r] = sc.rows16[j*w+l+r]
			} else {
				got[r] = uint16(sc.rows[j*w+l+r])
			}
		}
		if !slices.Equal(got, inv[m]) {
			t.Fatalf("present %v: decode row for shard %d = %v, full inverse has %v", present, m, got, inv[m])
		}
	}
}

// TestDecodeRowsExhaustive runs every subset of present shards of two small
// codes in each field, undecodable ones included.
func TestDecodeRowsExhaustive(t *testing.T) {
	for _, p := range []struct {
		wide bool
		k, h int
	}{{false, 4, 3}, {false, 7, 4}, {true, 2, 2}, {true, 4, 3}, {true, 7, 4}} {
		c := mustCode(t, p.wide, p.k, p.h)
		ref := makeBlock(t, c, 40, int64(p.k))
		present := make([]bool, c.N())
		for mask := 0; mask < 1<<c.N(); mask++ {
			for i := range present {
				present[i] = mask>>i&1 == 1
			}
			checkPattern(t, c, ref, present)
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
	for _, p := range []struct {
		wide bool
		k, h int
	}{{false, 20, 20}, {false, 100, 28}, {false, 1, 5}, {true, 20, 20}, {true, 1, 5}} {
		c := mustCode(t, p.wide, p.k, p.h)
		ref := makeBlock(t, c, 40, int64(p.k))
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
			checkPattern(t, c, ref, present)
		}
	}
}

// TestWideParityRows holds NewWide's Lagrange-form parity rows to the
// construction they stand for, G = V inv(V_top) over the Vandermonde
// matrix V[i][c] = i^c at the points 0..k+h-1: solved by elimination as
// V_top^T P^T = V_bottom^T, which leaves P^T in the last h columns.
func TestWideParityRows(t *testing.T) {
	for _, p := range []struct{ k, h int }{{1, 3}, {2, 2}, {5, 4}, {17, 9}, {40, 300}} {
		c := mustCode(t, true, p.k, p.h)
		k, w := p.k, p.k+p.h
		m := make([]uint16, k*w) // row r: column r of V, over all k+h points
		for r := 0; r < k; r++ {
			for i := 0; i < w; i++ {
				m[r*w+i] = gf16.Pow(uint16(i), r)
			}
		}
		if err := gf16.SolveSmall(m, k, w); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < p.h; j++ {
			for i := 0; i < k; i++ {
				if got, want := c.p16[j*k+i], m[i*w+k+j]; got != want {
					t.Fatalf("(%d,%d): P[%d][%d] = %#x, elimination gives %#x", p.k, p.h, j, i, got, want)
				}
			}
		}
	}
}

// TestReconstructCyclingPatternsAllocs pins that no erasure pattern costs
// an allocation, not only a repeated one: it walks the 190 two-erasure
// patterns of k = 20, and the first 380 of a GF(2^16) group of 300 + 60,
// with recycled output buffers.
func TestReconstructCyclingPatternsAllocs(t *testing.T) {
	for _, f := range fields {
		k, h := 20, 20
		if f.wide {
			k, h = 300, 60
		}
		t.Run(f.name, func(t *testing.T) { reconstructCyclingPatternsAllocs(t, mustCode(t, f.wide, k, h)) })
	}
}

func reconstructCyclingPatternsAllocs(t *testing.T, c *Code) {
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
