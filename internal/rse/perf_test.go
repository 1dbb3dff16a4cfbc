package rse

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// makeBlock returns a fully encoded block of n = k+h shards.
func makeBlock(t testing.TB, c *Code, size int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shards := make([][]byte, c.N())
	for i := 0; i < c.K(); i++ {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	for j := 0; j < c.H(); j++ {
		shards[c.K()+j] = make([]byte, size)
	}
	if err := c.Encode(shards[:c.K()], shards[c.K():]); err != nil {
		t.Fatal(err)
	}
	return shards
}

// TestReconstructSteadyStateAllocs pins the PR 2 acceptance gate: when the
// caller recycles the output buffers (zero-length shards with capacity),
// Reconstruct performs zero heap allocations.
func TestReconstructSteadyStateAllocs(t *testing.T) {
	c := MustNew(7, 7)
	const size = 1024
	ref := makeBlock(t, c, size, 42)
	shards := make([][]byte, c.N())
	for i := range shards {
		shards[i] = append([]byte(nil), ref[i]...)
	}
	lost := []int{0, 3, 5, 9} // repeated erasure pattern: 3 data + 1 parity

	allocs := testing.AllocsPerRun(50, func() {
		for _, i := range lost {
			shards[i] = shards[i][:0] // recycle: zero length, full capacity
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reconstruct allocated %.1f times per run, want 0", allocs)
	}
	for i := 0; i < c.K(); i++ {
		if !bytes.Equal(shards[i], ref[i]) {
			t.Fatalf("data shard %d corrupted by zero-alloc path", i)
		}
	}
}

// TestReconstructRecycledBuffers exercises the zero-length-with-capacity
// contract across many random patterns, interleaving recycled and nil
// missing shards, and checks the rebuilt data always matches.
func TestReconstructRecycledBuffers(t *testing.T) {
	c := MustNew(20, 5)
	const size = 512
	ref := makeBlock(t, c, size, 7)
	rng := rand.New(rand.NewSource(8))
	shards := make([][]byte, c.N())
	for trial := 0; trial < 200; trial++ {
		for i := range shards {
			shards[i] = append(shards[i][:0], ref[i]...)
		}
		nLost := 1 + rng.Intn(c.H())
		for _, i := range rng.Perm(c.N())[:nLost] {
			if rng.Intn(2) == 0 {
				shards[i] = nil // legacy contract: allocate fresh
			} else {
				shards[i] = shards[i][:0] // recycled buffer
			}
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < c.K(); i++ {
			if !bytes.Equal(shards[i], ref[i]) {
				t.Fatalf("trial %d: data shard %d wrong", trial, i)
			}
		}
	}
}

// TestEncodeBlocksMatchesEncode checks the batch API against per-block
// Encode on shared flat shard slices, including parity buffer reuse.
func TestEncodeBlocksMatchesEncode(t *testing.T) {
	c := MustNew(7, 3)
	const nb, size = 4, 256
	rng := rand.New(rand.NewSource(11))
	data := make([][]byte, nb*c.K())
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	parity := make([][]byte, nb*c.H())
	if err := c.EncodeBlocks(data, parity); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < nb; b++ {
		want := make([][]byte, c.H())
		if err := c.Encode(data[b*c.K():(b+1)*c.K()], want); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < c.H(); j++ {
			if !bytes.Equal(parity[b*c.H()+j], want[j]) {
				t.Fatalf("block %d parity %d diverges from Encode", b, j)
			}
		}
	}
	// Re-encode into the same parity buffers: must reuse, not grow.
	before := &parity[0][0]
	if err := c.EncodeBlocks(data, parity); err != nil {
		t.Fatal(err)
	}
	if &parity[0][0] != before {
		t.Fatal("EncodeBlocks reallocated a parity buffer it could reuse")
	}
}

// TestEncodeBlocksErrors covers the batch validation paths.
func TestEncodeBlocksErrors(t *testing.T) {
	c := MustNew(3, 2)
	good := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8)}
	if err := c.EncodeBlocks(good[:2], make([][]byte, 2)); err == nil {
		t.Error("non-multiple data count accepted")
	}
	if err := c.EncodeBlocks(good, make([][]byte, 1)); err == nil {
		t.Error("wrong parity count accepted")
	}
	bad := [][]byte{make([]byte, 8), nil, make([]byte, 8)}
	if err := c.EncodeBlocks(bad, make([][]byte, 2)); err == nil {
		t.Error("nil data shard accepted")
	}
	uneven := [][]byte{make([]byte, 8), make([]byte, 9), make([]byte, 8)}
	if err := c.EncodeBlocks(uneven, make([][]byte, 2)); err == nil {
		t.Error("uneven shard sizes accepted")
	}
}

// TestNewZeroParityCheap pins the h == 0 fast path: no generator matrix is
// built, and the degenerate code still behaves (Encode no-op, Reconstruct
// completeness check).
func TestNewZeroParityCheap(t *testing.T) {
	c := MustNew(200, 0) // would be a 200x200 inversion without the skip
	if c.parity != nil {
		t.Fatal("h == 0 code built a parity matrix")
	}
	if err := c.Encode(make2D(200, 16), [][]byte{}); err != nil {
		t.Fatal(err)
	}
	shards := make2D(200, 16)
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	shards[5] = nil
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("missing shard with h == 0 did not error")
	}
}

// TestKernelGate pins the coefficient-diversity gate: the paper's small
// operating points stay on the pair-table word kernels, wide codes fall
// back to the compact shared-table loop, and both paths produce identical
// blocks (the wide k=7 code and the compact k=100 code share data shards
// through a common split, so any divergence shows up as a round-trip
// failure).
func TestKernelGate(t *testing.T) {
	for _, tc := range []struct {
		k, h int
		wide bool
	}{
		{7, 7, true}, {20, 4, true}, {20, 12, false}, {100, 5, false},
	} {
		if got := MustNew(tc.k, tc.h).wideEncode; got != tc.wide {
			t.Errorf("k=%d h=%d: wideEncode = %v, want %v", tc.k, tc.h, got, tc.wide)
		}
	}

	// Round-trip through the compact path: k=100 exceeds the budget for
	// both its generator and every decode matrix.
	c := MustNew(100, 10)
	if c.wideEncode {
		t.Fatal("k=100 h=10 unexpectedly within pairCoeffBudget")
	}
	rng := rand.New(rand.NewSource(11))
	shards := make2D(110, 64)
	for i := 0; i < 100; i++ {
		rng.Read(shards[i])
	}
	if err := c.Encode(shards[:100], shards[100:]); err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, 100)
	for i := range want {
		want[i] = append([]byte(nil), shards[i]...)
	}
	for _, i := range []int{0, 13, 41, 42, 77, 99} {
		shards[i] = nil
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatalf("compact-path reconstruct diverged at shard %d", i)
		}
	}
	if ok, err := c.Verify(shards); err != nil || !ok {
		t.Fatalf("compact-path Verify rejected a valid block: ok=%v err=%v", ok, err)
	}
}

func make2D(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
	}
	return out
}

// BenchmarkReconstruct measures steady-state decode at the paper's two
// operating points with recycled buffers (the receiver's hot path).
func BenchmarkReconstruct(b *testing.B) {
	for _, p := range []struct{ k, h int }{{7, 7}, {20, 5}} {
		c := MustNew(p.k, p.h)
		ref := makeBlock(b, c, 1024, 9)
		shards := make([][]byte, c.N())
		for i := range shards {
			shards[i] = append([]byte(nil), ref[i]...)
		}
		lost := make([]int, p.h)
		for i := range lost {
			lost[i] = i * 2 // data-heavy repeated pattern
		}
		b.Run(benchName(p.k, p.h), func(b *testing.B) {
			b.SetBytes(int64(p.k * 1024))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, idx := range lost {
					shards[idx] = shards[idx][:0]
				}
				if err := c.Reconstruct(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncode measures batch encode at the paper's operating points.
func BenchmarkEncode(b *testing.B) {
	for _, p := range []struct{ k, h int }{{7, 7}, {20, 5}} {
		c := MustNew(p.k, p.h)
		shards := makeBlock(b, c, 1024, 10)
		b.Run(benchName(p.k, p.h), func(b *testing.B) {
			b.SetBytes(int64(p.k * 1024))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Encode(shards[:p.k], shards[p.k:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(k, h int) string {
	return fmt.Sprintf("k%dh%d", k, h)
}
