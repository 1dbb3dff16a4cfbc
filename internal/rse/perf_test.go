package rse

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rmfec/internal/metrics"
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

// TestReconstructSteadyStateAllocs pins the codec's zero-allocation
// contract in both fields: when the caller recycles the output buffers
// (zero-length shards with capacity), Reconstruct performs zero heap
// allocations.
func TestReconstructSteadyStateAllocs(t *testing.T) {
	for _, p := range []struct {
		wide bool
		k, h int
		lost []int // repeated erasure pattern
	}{
		{false, 7, 7, []int{0, 3, 5, 9}},                                    // 3 data + 1 parity
		{true, 300, 60, []int{0, 31, 64, 99, 150, 151, 200, 298, 299, 310}}, // 9 data + 1 parity
	} {
		reconstructSteadyStateAllocs(t, mustCode(t, p.wide, p.k, p.h), p.lost)
	}
}

func reconstructSteadyStateAllocs(t *testing.T, c *Code, lost []int) {
	const size = 1024
	ref := makeBlock(t, c, size, 42)
	shards := make([][]byte, c.N())
	for i := range shards {
		shards[i] = append([]byte(nil), ref[i]...)
	}

	allocs := testing.AllocsPerRun(50, func() {
		for _, i := range lost {
			shards[i] = shards[i][:0] // recycle: zero length, full capacity
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("wide=%v: steady-state Reconstruct allocated %.1f times per run, want 0", c.Wide(), allocs)
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
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) { reconstructRecycledBuffers(t, mustCode(t, f.wide, 20, 5)) })
	}
}

func reconstructRecycledBuffers(t *testing.T, c *Code) {
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
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) { encodeBlocksMatchesEncode(t, mustCode(t, f.wide, 7, 3)) })
	}
}

func encodeBlocksMatchesEncode(t *testing.T, c *Code) {
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
			if p, err := encodeParity(c, j, data[b*c.K():(b+1)*c.K()], nil); err != nil || !bytes.Equal(p, want[j]) {
				t.Fatalf("block %d parity %d diverges from encodeParity (err %v)", b, j, err)
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
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) { encodeBlocksErrors(t, mustCode(t, f.wide, 3, 2)) })
	}
}

func encodeBlocksErrors(t *testing.T, c *Code) {
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
	uneven := [][]byte{make([]byte, 8), make([]byte, 10), make([]byte, 8)}
	if err := c.EncodeBlocks(uneven, make([][]byte, 2)); err == nil {
		t.Error("uneven shard sizes accepted")
	}
}

// TestEncodeBlocksShardErrors pins how EncodeBlocks rejects a malformed
// multi-block batch: a data count that is not a whole number of blocks or
// a short parity slice fails with ErrBadShardCount, and a size mismatch
// inside a later block fails the call with ErrShardSize, naming the block.
// Both fields share the validation, so both answer alike.
func TestEncodeBlocksShardErrors(t *testing.T) {
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) { encodeBlocksShardErrors(t, mustCode(t, f.wide, 4, 2)) })
	}
}

func encodeBlocksShardErrors(t *testing.T, c *Code) {
	data := randBlocks(t, 2, 4, 16, 7)
	parity := make([][]byte, 4)
	if err := c.EncodeBlocks(data[:3], parity); !errors.Is(err, ErrBadShardCount) {
		t.Errorf("ragged data: %v", err)
	}
	if err := c.EncodeBlocks(data, parity[:3]); !errors.Is(err, ErrBadShardCount) {
		t.Errorf("short parity: %v", err)
	}
	bad := randBlocks(t, 2, 4, 16, 8)
	bad[5] = bad[5][:7]
	err := c.EncodeBlocks(bad, parity)
	if !errors.Is(err, ErrShardSize) || !strings.Contains(err.Error(), "block 1") {
		t.Errorf("mid-batch shard size mismatch: %v", err)
	}
}

// randBlocks builds nb*k data shards of the given size from a fixed seed.
func randBlocks(t *testing.T, nb, k, size int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]byte, nb*k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

// TestEncodeBlocksCountsBytes checks the EncodeBytes instrument counts
// every parity byte a batch writes, once, in either field.
func TestEncodeBlocksCountsBytes(t *testing.T) {
	const k, h, nb, size = 7, 3, 5, 128
	for _, f := range fields {
		c := mustCode(t, f.wide, k, h)
		ins := RegisterInstruments(metrics.NewRegistry())
		c.Instrument(ins)
		data := randBlocks(t, nb, k, size, 11)
		if err := c.EncodeBlocks(data, make([][]byte, nb*h)); err != nil {
			t.Fatal(err)
		}
		if got, want := ins.EncodeBytes.Value(), uint64(nb*h*size); got != want {
			t.Errorf("%s: EncodeBytes = %d, want %d", f.name, got, want)
		}
	}
}

// TestEncodeBlocksSteadyStateAllocs pins the zero-alloc contract of the
// batch encode in both fields: with warmed (recycled) parity buffers a
// call performs no heap allocations.
func TestEncodeBlocksSteadyStateAllocs(t *testing.T) {
	for _, p := range []struct {
		wide           bool
		k, h, nb, size int
	}{{false, 20, 5, 4, 1024}, {true, 300, 60, 2, 64}} {
		c := mustCode(t, p.wide, p.k, p.h)
		data := randBlocks(t, p.nb, p.k, p.size, 3)
		parity := make([][]byte, p.nb*p.h)
		// Warm the buffers so sizeFor reuses capacity thereafter.
		if err := c.EncodeBlocks(data, parity); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := c.EncodeBlocks(data, parity); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("wide=%v: %v allocs/op on warmed EncodeBlocks, want 0", p.wide, allocs)
		}
	}
}

// TestEncodeParitySteadyStateAllocs pins the on-demand path NP runs per
// repair round: a one-row EncodeRows into a warmed dst allocates nothing, in
// either field, and at a shard size that is no multiple of 32, where the
// row product runs one row at a time.
func TestEncodeParitySteadyStateAllocs(t *testing.T) {
	for _, p := range []struct {
		wide       bool
		k, h, size int
	}{{false, 20, 5, 1024}, {false, 20, 5, 1000}, {true, 300, 60, 1024}} {
		c := mustCode(t, p.wide, p.k, p.h)
		data := randBlocks(t, 1, p.k, p.size, 4)
		dst, err := encodeParity(c, 0, data, nil)
		if err != nil {
			t.Fatal(err)
		}
		j := 0
		allocs := testing.AllocsPerRun(20, func() {
			j = (j + 1) % p.h
			if dst, err = encodeParity(c, j, data, dst[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("wide=%v: %v allocs/op on encodeParity into dst, want 0", p.wide, allocs)
		}
	}
}

// TestNewZeroParityCheap pins the h == 0 fast path: no generator matrix is
// built, and the degenerate code still behaves (Encode no-op, Reconstruct
// completeness check).
func TestNewZeroParityCheap(t *testing.T) {
	c := mustNew(200, 0) // would be a 200x200 inversion without the skip
	if c.p8 != nil {
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

// TestKernelGate round-trips a code whose generator and decode rows carry
// well over a hundred distinct coefficients (k = 100), too many for
// per-coefficient tables to stay in cache: the row product must rebuild
// the data and re-encode the same parities.
func TestKernelGate(t *testing.T) {
	c := mustNew(100, 10)
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
			t.Fatalf("k=100 reconstruct diverged at shard %d", i)
		}
	}
	parity := make([][]byte, 10)
	if err := c.Encode(shards[:100], parity); err != nil {
		t.Fatal(err)
	}
	for j := range parity {
		if !bytes.Equal(parity[j], shards[100+j]) {
			t.Fatalf("re-encoding the rebuilt data moved parity %d", j)
		}
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
// operating points and a GF(2^16) group of 300 + 60 with recycled buffers
// (the receiver's hot path).
func BenchmarkReconstruct(b *testing.B) {
	for _, p := range []struct {
		wide       bool
		k, h, lose int
	}{{false, 7, 7, 7}, {false, 20, 5, 5}, {true, 300, 60, 10}} {
		c := mustCode(b, p.wide, p.k, p.h)
		ref := makeBlock(b, c, 1024, 9)
		shards := make([][]byte, c.N())
		for i := range shards {
			shards[i] = append([]byte(nil), ref[i]...)
		}
		lost := make([]int, p.lose)
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

// BenchmarkEncode measures batch encode at the paper's operating points
// and at a GF(2^16) group of 300 + 60.
func BenchmarkEncode(b *testing.B) {
	for _, p := range []struct {
		wide bool
		k, h int
	}{{false, 7, 7}, {false, 20, 5}, {true, 300, 60}} {
		c := mustCode(b, p.wide, p.k, p.h)
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
