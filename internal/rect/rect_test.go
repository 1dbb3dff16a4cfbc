package rect

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"
)

func randBlock(t *testing.T, rng *rand.Rand, k, size int) [][]byte {
	t.Helper()
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

// xorRef computes parity j by definition: byte-wise XOR over class j.
func xorRef(k, d, j, size int, data [][]byte) []byte {
	out := make([]byte, size)
	for i := j; i < k; i += d {
		for b := range out {
			out[b] ^= data[i][b]
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ k, d int }{{0, 1}, {4, 0}, {4, 5}, {60, 8}, {-1, 1}} {
		if _, err := New(tc.k, tc.d); err == nil {
			t.Errorf("New(%d, %d) accepted", tc.k, tc.d)
		}
	}
	c, err := New(20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 20 || c.D() != 4 || c.N() != 24 {
		t.Fatalf("got k=%d d=%d n=%d", c.K(), c.D(), c.N())
	}
}

func TestEncodeParityMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ k, d int }{{20, 4}, {20, 3}, {7, 2}, {5, 5}, {32, 1}} {
		c := MustNew(tc.k, tc.d)
		data := randBlock(t, rng, tc.k, 129)
		for j := 0; j < tc.d; j++ {
			got, err := c.EncodeParity(j, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := xorRef(tc.k, tc.d, j, 129, data)
			if !bytes.Equal(got, want) {
				t.Fatalf("k=%d d=%d parity %d mismatch", tc.k, tc.d, j)
			}
		}
	}
	c := MustNew(8, 2)
	if _, err := c.EncodeParity(2, randBlock(t, rng, 8, 8), nil); err == nil {
		t.Fatal("out-of-range parity index accepted")
	}
}

// TestEncodeBlocksMatchesEncodeParity checks the batch encode row by row
// against EncodeParity on each block, and its count and size validation.
func TestEncodeBlocksMatchesEncodeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := MustNew(12, 3)
	const nb, size = 5, 64
	data := randBlock(t, rng, nb*12, size)
	got := make([][]byte, nb*3)
	if err := c.EncodeBlocks(data, got); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < nb; b++ {
		for j := 0; j < 3; j++ {
			want, err := c.EncodeParity(j, data[b*12:(b+1)*12], nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[b*3+j], want) {
				t.Fatalf("block %d row %d differs from EncodeParity", b, j)
			}
		}
	}
	if err := c.EncodeBlocks(data[:13], make([][]byte, 3)); err == nil {
		t.Error("non-multiple data count accepted")
	}
	if err := c.EncodeBlocks(data, make([][]byte, nb*3-1)); err == nil {
		t.Error("wrong parity count accepted")
	}
	uneven := append([][]byte(nil), data[:12]...)
	uneven[7] = uneven[7][:size-1]
	if err := c.EncodeBlocks(uneven, make([][]byte, 3)); err == nil {
		t.Error("uneven shard sizes accepted")
	}
}

func TestReconstructAllSingleLossPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := MustNew(20, 4)
	data := randBlock(t, rng, 20, 77)
	parity := make([][]byte, 4)
	if err := c.EncodeBlocks(data, parity); err != nil {
		t.Fatal(err)
	}
	// Lose one data shard per class (the maximum recoverable pattern).
	shards := make([][]byte, 24)
	lost := []int{0, 5, 10, 19} // classes 0,1,2,3
	copy(shards, data)
	for i, p := range parity {
		shards[20+i] = p
	}
	for _, i := range lost {
		shards[i] = nil
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for _, i := range lost {
		if !bytes.Equal(shards[i], data[i]) {
			t.Fatalf("shard %d not recovered", i)
		}
	}
}

func TestReconstructUnrecoverable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := MustNew(8, 2)
	data := randBlock(t, rng, 8, 16)
	parity := make([][]byte, 2)
	if err := c.EncodeBlocks(data, parity); err != nil {
		t.Fatal(err)
	}
	// Two losses in class 0 (seqs 0 and 2).
	shards := make([][]byte, 10)
	copy(shards, data)
	shards[8], shards[9] = parity[0], parity[1]
	shards[0], shards[2] = nil, nil
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("two losses in one class reconstructed")
	}
	// One loss but its parity also lost.
	shards2 := make([][]byte, 10)
	copy(shards2, data)
	shards2[8], shards2[9] = parity[0], parity[1]
	shards2[1], shards2[9] = nil, nil // seq 1 is class 1; parity 1 lost too
	if err := c.Reconstruct(shards2); err == nil {
		t.Fatal("loss with absent parity reconstructed")
	}
}

func TestReconstructRecycledBuffersNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := MustNew(16, 4)
	const size = 128
	data := randBlock(t, rng, 16, size)
	parity := make([][]byte, 4)
	if err := c.EncodeBlocks(data, parity); err != nil {
		t.Fatal(err)
	}
	spare := make([]byte, size)
	row := make([]byte, 0, size)
	shards := make([][]byte, 20)
	allocs := testing.AllocsPerRun(100, func() {
		copy(shards, data)
		for i, p := range parity {
			shards[16+i] = p
		}
		shards[3] = spare[:0] // zero length, full capacity
		if err := c.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(shards[3], data[3]) {
			t.Fatal("recycled-buffer reconstruct wrong")
		}
		// The sender's side of the same contract: a block and a parity
		// row into recycled buffers, and the deficit of a block missing
		// shard 3.
		if err := c.EncodeBlocks(data, parity); err != nil {
			t.Fatal(err)
		}
		if p, err := c.EncodeParity(3, data, row); err != nil || !bytes.Equal(p, parity[3]) {
			t.Fatal("recycled-buffer EncodeParity wrong")
		}
		if c.ShortfallBits((1<<20-1)&^(1<<3|1<<19)) != 1 {
			t.Fatal("ShortfallBits wrong")
		}
	})
	if allocs != 0 {
		t.Fatalf("Reconstruct, EncodeBlocks, EncodeParity and ShortfallBits with recycled buffers allocate %.1f/op", allocs)
	}
}

func TestShortfallBits(t *testing.T) {
	c := MustNew(20, 4)
	all := uint64(1<<24) - 1
	if got := c.ShortfallBits(all); got != 0 {
		t.Fatalf("complete block shortfall = %d", got)
	}
	// Missing one data shard, its parity held: repairable, shortfall 0.
	if got := c.ShortfallBits(all &^ (1 << 6)); got != 0 {
		t.Fatalf("one-loss shortfall = %d, want 0", got)
	}
	// Missing one data shard AND its class parity (seq 6 is class 2,
	// parity index 22): shortfall 1.
	if got := c.ShortfallBits(all &^ (1 << 6) &^ (1 << 22)); got != 1 {
		t.Fatalf("loss+parity shortfall = %d, want 1", got)
	}
	// Two losses in class 0 (seqs 0, 4) with parity held: only one is
	// repairable, shortfall 1.
	if got := c.ShortfallBits(all &^ 1 &^ (1 << 4)); got != 1 {
		t.Fatalf("two-in-class shortfall = %d, want 1", got)
	}
	// Cross-check against brute force over random loss patterns:
	// shortfall is sum over classes of max(0, missing - parityHeld).
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		have := rng.Uint64() & all
		want := 0
		for j := 0; j < 4; j++ {
			missing := 0
			for i := j; i < 20; i += 4 {
				if have&(1<<uint(i)) == 0 {
					missing++
				}
			}
			if missing > 0 && have&(1<<uint(20+j)) != 0 {
				missing--
			}
			want += missing
		}
		if got := c.ShortfallBits(have); got != want {
			t.Fatalf("have=%#x shortfall=%d want %d (popcount %d)", have, got, want, bits.OnesCount64(have))
		}
	}
}

func TestReconstructMatchesShortfall(t *testing.T) {
	// Whenever ShortfallBits says 0 for a pattern with all parities of
	// deficient classes held, Reconstruct must succeed and reproduce the
	// data exactly.
	rng := rand.New(rand.NewSource(7))
	c := MustNew(12, 3)
	data := randBlock(t, rng, 12, 33)
	parity := make([][]byte, 3)
	if err := c.EncodeBlocks(data, parity); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		have := rng.Uint64() & (1<<15 - 1)
		shards := make([][]byte, 15)
		for i := 0; i < 12; i++ {
			if have&(1<<uint(i)) != 0 {
				shards[i] = data[i]
			}
		}
		for j := 0; j < 3; j++ {
			if have&(1<<uint(12+j)) != 0 {
				shards[12+j] = parity[j]
			}
		}
		err := c.Reconstruct(shards)
		if c.ShortfallBits(have) == 0 {
			if err != nil {
				t.Fatalf("have=%#x shortfall 0 but Reconstruct failed: %v", have, err)
			}
			for i := 0; i < 12; i++ {
				if !bytes.Equal(shards[i], data[i]) {
					t.Fatalf("have=%#x shard %d wrong after reconstruct", have, i)
				}
			}
		} else if err == nil {
			t.Fatalf("have=%#x shortfall %d but Reconstruct succeeded", have, c.ShortfallBits(have))
		}
	}
}

func BenchmarkEncodeParity(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	c := MustNew(20, 4)
	data := make([][]byte, 20)
	for i := range data {
		data[i] = make([]byte, 1024)
		rng.Read(data[i])
	}
	dst := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeParity(i%4, data, dst); err != nil {
			b.Fatal(err)
		}
	}
}
