// Package rse16 holds the GF(2^16) round-trip and validation tests of the
// Reed-Solomon code that rse.NewWide builds. The codec itself lives in
// rse, which serves both symbol sizes; this directory has no non-test
// files.
package rse16

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

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

func newWide(t testing.TB, k, h int) *rse.Code {
	t.Helper()
	c, err := rse.NewWide(k, h)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func encodeBlock(t testing.TB, c *rse.Code, data [][]byte) [][]byte {
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
		{1, 0, true}, {7, 3, true}, {300, 60, true},
		{0, 1, false}, {-1, 2, false}, {3, -1, false}, {rse.MaxWideK + 1, 1, false},
	} {
		c, err := rse.NewWide(tc.k, tc.h)
		if (err == nil) != tc.ok {
			t.Errorf("NewWide(%d,%d): err = %v, want ok=%v", tc.k, tc.h, err, tc.ok)
		}
		if err == nil && !c.Wide() {
			t.Errorf("NewWide(%d,%d) built a GF(2^8) code", tc.k, tc.h)
		}
	}
}

func TestRoundTripSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kh := range [][2]int{{4, 3}, {7, 1}, {16, 8}} {
		k, h := kh[0], kh[1]
		c := newWide(t, k, h)
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
	if _, err := rse.New(k, h); err == nil {
		t.Fatalf("rse.New(%d,%d) accepted a block beyond GF(2^8)", k, h)
	}
	c := newWide(t, k, h)
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
	c := newWide(t, 3, 2)
	data := [][]byte{make([]byte, 7), make([]byte, 7), make([]byte, 7)}
	if err := c.Encode(data, make([][]byte, 2)); !errors.Is(err, rse.ErrShardSize) {
		t.Errorf("odd shard size: %v", err)
	}
}

func TestTooFewShards(t *testing.T) {
	c := newWide(t, 5, 2)
	rng := rand.New(rand.NewSource(3))
	data := randShards(rng, 5, 32)
	block := encodeBlock(t, c, data)
	shards := make([][]byte, c.N())
	shards[0] = block[0]
	shards[5] = block[5]
	if err := c.Reconstruct(shards); !errors.Is(err, rse.ErrTooFewShards) {
		t.Errorf("4 missing of 7: %v", err)
	}
}

func TestEncodeParityErrors(t *testing.T) {
	c := newWide(t, 3, 2)
	data := [][]byte{{1, 2}, {3, 4}, {5, 6}}
	if _, err := c.EncodeParity(2, data, nil); !errors.Is(err, rse.ErrBadParityIndex) {
		t.Errorf("index 2: %v", err)
	}
	if _, err := c.EncodeParity(0, data[:2], nil); !errors.Is(err, rse.ErrBadShardCount) {
		t.Errorf("short data: %v", err)
	}
	if _, err := c.EncodeParity(0, [][]byte{{1, 2}, nil, {5, 6}}, nil); !errors.Is(err, rse.ErrBadShardCount) {
		t.Errorf("nil shard: %v", err)
	}
}

func TestAgreesWithDirectLinearAlgebra(t *testing.T) {
	// Parity row consistency: reconstructing from parities must invert the
	// encoding exactly for a hand-checkable k=2 case.
	c := newWide(t, 2, 2)
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

func TestHugeGroupRoundTrip(t *testing.T) {
	// k = 1200 with 40 parities: construction and decode must complete in
	// well under a second thanks to the O(k^2) Lagrange rows.
	const k, h = 1200, 40
	c := newWide(t, k, h)
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
	c := newWide(t, 5, 3)
	rng := rand.New(rand.NewSource(13))
	data := randShards(rng, 5, 64)
	parity := make([][]byte, 3)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	for j := range parity {
		want, err := c.EncodeParity(j, data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(parity[j], want) {
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
	c := newWide(t, k, h)
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
				want, err := c.EncodeParity(j, data[b*k:(b+1)*k], nil)
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

// TestEncodeBlocksShardErrors pins argument validation across the two
// fields: the sender picks the GF(2^8) or the GF(2^16) code by k+h behind
// one Codec, so every malformed Encode call must fail in both, with the
// same sentinel.
func TestEncodeBlocksShardErrors(t *testing.T) {
	const k, h = 4, 2
	c16 := newWide(t, k, h)
	c8 := rse.MustNew(k, h)
	data := randShards(rand.New(rand.NewSource(17)), k, 32)
	cases := []struct {
		name    string
		data    [][]byte
		nparity int
		want    error
	}{
		{"short data", data[:3], h, rse.ErrBadShardCount},
		{"wrong parity count", data, h + 1, rse.ErrBadShardCount},
		{"short parity", data, h - 1, rse.ErrBadShardCount},
		{"nil data shard", [][]byte{data[0], nil, data[2], data[3]}, h, rse.ErrBadShardCount},
		{"uneven shard sizes", [][]byte{data[0], data[1][:30], data[2], data[3]}, h, rse.ErrShardSize},
	}
	for _, tc := range cases {
		if err := c16.Encode(tc.data, make([][]byte, tc.nparity)); !errors.Is(err, tc.want) {
			t.Errorf("%s: GF(2^16): %v", tc.name, err)
		}
		if err := c8.Encode(tc.data, make([][]byte, tc.nparity)); !errors.Is(err, tc.want) {
			t.Errorf("%s: GF(2^8): %v", tc.name, err)
		}
	}
}
