package rse16

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"rmfec/internal/gf16"
	"rmfec/internal/rse"
)

func randShards(rng *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

func encodeBlock(t testing.TB, c *Code, data [][]byte) [][]byte {
	t.Helper()
	parity := make([][]byte, c.H())
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	return append(append([][]byte{}, data...), parity...)
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		k, h int
		ok   bool
	}{
		// k = 4096 is legal but its O(k^3) construction takes minutes, so
		// the largest constructor exercised here is k = 300 (see
		// TestLargeBlockBeyondGF256); only the bound check runs for 4097.
		{1, 0, true}, {7, 3, true}, {300, 60, true},
		{0, 1, false}, {-1, 2, false}, {3, -1, false}, {4097, 1, false},
	} {
		_, err := New(tc.k, tc.h)
		if (err == nil) != tc.ok {
			t.Errorf("New(%d,%d): err = %v, want ok=%v", tc.k, tc.h, err, tc.ok)
		}
	}
}

func TestRoundTripSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kh := range [][2]int{{4, 3}, {7, 1}, {16, 8}} {
		k, h := kh[0], kh[1]
		c, err := New(k, h)
		if err != nil {
			t.Fatal(err)
		}
		data := randShards(rng, k, 64)
		block := encodeBlock(t, c, data)
		for trial := 0; trial < 40; trial++ {
			lose := rng.Intn(h + 1)
			perm := rng.Perm(c.N())
			shards := make([][]byte, c.N())
			for i, idx := range perm {
				if i < c.N()-lose {
					shards[idx] = append([]byte(nil), block[idx]...)
				}
			}
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("(%d,%d) lose %d: %v", k, h, lose, err)
			}
			for i := 0; i < k; i++ {
				if !bytes.Equal(shards[i], data[i]) {
					t.Fatalf("(%d,%d): shard %d wrong", k, h, i)
				}
			}
		}
	}
}

func TestLargeBlockBeyondGF256(t *testing.T) {
	// The point of GF(2^16): a block of 300+60 packets, impossible with
	// 8-bit symbols. Lose a scattered 60 and reconstruct.
	const k, h = 300, 60
	c, err := New(k, h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	data := randShards(rng, k, 128)
	block := encodeBlock(t, c, data)
	shards := make([][]byte, c.N())
	perm := rng.Perm(c.N())
	for i, idx := range perm {
		if i < c.N()-h { // lose exactly h shards
			shards[idx] = append([]byte(nil), block[idx]...)
		}
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if !bytes.Equal(shards[i], data[i]) {
			t.Fatalf("shard %d corrupted", i)
		}
	}
}

func TestOddShardSizeRejected(t *testing.T) {
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{make([]byte, 7), make([]byte, 7), make([]byte, 7)}
	if err := c.Encode(data, make([][]byte, 2)); !errors.Is(err, ErrShardSize) {
		t.Errorf("odd shard size: %v", err)
	}
}

func TestTooFewShards(t *testing.T) {
	c, err := New(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	data := randShards(rng, 5, 32)
	block := encodeBlock(t, c, data)
	shards := make([][]byte, c.N())
	shards[0] = block[0]
	shards[5] = block[5]
	if err := c.Reconstruct(shards); !errors.Is(err, ErrTooFewShards) {
		t.Errorf("4 missing of 7: %v", err)
	}
}

func TestEncodeParityErrors(t *testing.T) {
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{{1, 2}, {3, 4}, {5, 6}}
	if _, err := c.EncodeParity(2, data); !errors.Is(err, ErrBadIndex) {
		t.Errorf("index 2: %v", err)
	}
	if _, err := c.EncodeParity(0, data[:2]); !errors.Is(err, ErrBadShardCount) {
		t.Errorf("short data: %v", err)
	}
	if _, err := c.EncodeParity(0, [][]byte{{1, 2}, nil, {5, 6}}); !errors.Is(err, ErrBadShardCount) {
		t.Errorf("nil shard: %v", err)
	}
}

func TestAgreesWithDirectLinearAlgebra(t *testing.T) {
	// Parity row consistency: reconstructing from parities must invert the
	// encoding exactly for a hand-checkable k=2 case.
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{{0x12, 0x34}, {0xab, 0xcd}}
	block := encodeBlock(t, c, data)
	// Lose both data shards; recover from the two parities alone.
	shards := [][]byte{nil, nil, block[2], block[3]}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[0], data[0]) || !bytes.Equal(shards[1], data[1]) {
		t.Fatal("recovery from parities alone failed")
	}
}

func BenchmarkRSE16EncodeK300(b *testing.B) {
	c, err := New(300, 30)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	data := randShards(rng, 300, 1024)
	parity := make([][]byte, 30)
	b.SetBytes(300 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLagrangeInverseIsInverse(t *testing.T) {
	// M must satisfy sum_c xs[r]^c * M[c][s] = delta(r,s): evaluating the
	// Lagrange basis polynomial L_s at every point.
	rng := rand.New(rand.NewSource(10))
	for _, k := range []int{1, 2, 5, 17} {
		seen := map[uint16]bool{}
		xs := make([]uint16, 0, k)
		for len(xs) < k {
			x := uint16(rng.Intn(1 << 16))
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
		m := lagrangeInverse(xs)
		for r := 0; r < k; r++ {
			for s := 0; s < k; s++ {
				var acc, pow uint16 = 0, 1
				for c := 0; c < k; c++ {
					acc ^= gf16.Mul(pow, m[c][s])
					pow = gf16.Mul(pow, xs[r])
				}
				want := uint16(0)
				if r == s {
					want = 1
				}
				if acc != want {
					t.Fatalf("k=%d: (V*M)[%d][%d] = %#x, want %#x", k, r, s, acc, want)
				}
			}
		}
	}
}

func TestHugeGroupRoundTrip(t *testing.T) {
	// k = 1200 with 40 parities: construction and decode must complete in
	// well under a second thanks to the O(k^2) Lagrange path.
	const k, h = 1200, 40
	c, err := New(k, h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	data := randShards(rng, k, 32)
	block := encodeBlock(t, c, data)
	shards := make([][]byte, c.N())
	copy(shards, block)
	// Knock out h scattered data shards.
	for _, idx := range rng.Perm(k)[:h] {
		shards[idx] = nil
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if !bytes.Equal(shards[i], data[i]) {
			t.Fatalf("shard %d corrupted", i)
		}
	}
}

func TestEncodeReusesParityBuffers(t *testing.T) {
	c, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	data := make([][]byte, 5)
	for i := range data {
		data[i] = make([]byte, 64)
		rng.Read(data[i])
	}
	parity := make([][]byte, 3)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, 3)
	for j := range want {
		p, err := c.EncodeParity(j, data)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = p
	}
	for j := range parity {
		if !bytes.Equal(parity[j], want[j]) {
			t.Fatalf("Encode parity %d diverges from EncodeParity", j)
		}
	}
	before := &parity[0][0]
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	if &parity[0][0] != before {
		t.Fatal("Encode reallocated a parity buffer it could reuse")
	}
}

// TestEncodeBlocks16MatchesEncode encodes a batch of blocks with one
// Encode call per block over sub-slices of shared flat data and parity
// slices, and checks every parity row against EncodeParity. A second
// batch of fresh data encoded into the same slots must reuse each parity
// buffer and leave no stale bytes behind.
func TestEncodeBlocks16MatchesEncode(t *testing.T) {
	const k, h, nb, size = 4, 2, 3, 32
	c, err := New(k, h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	parity := make([][]byte, nb*h)
	encodeBatch := func(data [][]byte) {
		t.Helper()
		for b := 0; b < nb; b++ {
			if err := c.Encode(data[b*k:(b+1)*k], parity[b*h:(b+1)*h]); err != nil {
				t.Fatal(err)
			}
		}
		for b := 0; b < nb; b++ {
			for j := 0; j < h; j++ {
				want, err := c.EncodeParity(j, data[b*k:(b+1)*k])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(parity[b*h+j], want) {
					t.Fatalf("block %d parity %d diverges from EncodeParity", b, j)
				}
			}
		}
	}
	encodeBatch(randShards(rng, nb*k, size))
	before := make([]*byte, len(parity))
	for r := range parity {
		before[r] = &parity[r][0]
	}
	encodeBatch(randShards(rng, nb*k, size))
	for r := range parity {
		if &parity[r][0] != before[r] {
			t.Fatalf("parity slot %d reallocated on the second batch", r)
		}
	}
}

// TestEncodeBlocksShardErrors pins argument validation parity with rse:
// the sender picks the GF(2^8) or the GF(2^16) code by k+h behind one
// Codec, so every malformed Encode call must fail in both, with the
// matching sentinel.
func TestEncodeBlocksShardErrors(t *testing.T) {
	const k, h = 4, 2
	c, err := New(k, h)
	if err != nil {
		t.Fatal(err)
	}
	c8 := rse.MustNew(k, h)
	data := randShards(rand.New(rand.NewSource(17)), k, 32)
	cases := []struct {
		name          string
		data          [][]byte
		nparity       int
		want16, want8 error
	}{
		{"short data", data[:3], h, ErrBadShardCount, rse.ErrBadShardCount},
		{"wrong parity count", data, h + 1, ErrBadShardCount, rse.ErrBadShardCount},
		{"short parity", data, h - 1, ErrBadShardCount, rse.ErrBadShardCount},
		{"nil data shard", [][]byte{data[0], nil, data[2], data[3]}, h, ErrBadShardCount, rse.ErrBadShardCount},
		{"uneven shard sizes", [][]byte{data[0], data[1][:30], data[2], data[3]}, h, ErrShardSize, rse.ErrShardSize},
	}
	for _, tc := range cases {
		if err := c.Encode(tc.data, make([][]byte, tc.nparity)); !errors.Is(err, tc.want16) {
			t.Errorf("%s: rse16: %v", tc.name, err)
		}
		if err := c8.Encode(tc.data, make([][]byte, tc.nparity)); !errors.Is(err, tc.want8) {
			t.Errorf("%s: rse: %v", tc.name, err)
		}
	}
}
