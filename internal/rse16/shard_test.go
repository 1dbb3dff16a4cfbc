package rse16

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestEncodeBlocksShardMatchesSerial mirrors the rse equivalence property:
// for every shard count 1..16, running all shards must reproduce the
// single-shard (0 of 1) output byte-for-byte.
func TestEncodeBlocksShardMatchesSerial(t *testing.T) {
	cases := []struct{ k, h, nb, size int }{
		{1, 1, 1, 2},
		{3, 5, 4, 18},
		{20, 5, 3, 64},
		{50, 10, 2, 128},
	}
	for _, tc := range cases {
		c, err := New(tc.k, tc.h)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(tc.k + tc.h)))
		data := make([][]byte, tc.nb*tc.k)
		for i := range data {
			data[i] = make([]byte, tc.size)
			rng.Read(data[i])
		}
		want := make([][]byte, tc.nb*tc.h)
		if err := c.EncodeBlocksShard(data, want, 0, 1); err != nil {
			t.Fatal(err)
		}
		for nshards := 1; nshards <= 16; nshards++ {
			got := make([][]byte, tc.nb*tc.h)
			for s := 0; s < nshards; s++ {
				if err := c.EncodeBlocksShard(data, got, s, nshards); err != nil {
					t.Fatalf("k=%d h=%d nshards=%d shard=%d: %v", tc.k, tc.h, nshards, s, err)
				}
			}
			for r := range want {
				if !bytes.Equal(got[r], want[r]) {
					t.Fatalf("k=%d h=%d nb=%d nshards=%d: parity row %d differs",
						tc.k, tc.h, tc.nb, nshards, r)
				}
			}
		}
	}
}

// TestEncodeBlocksShardConcurrent runs shards on separate goroutines over
// one shared parity slice; under -race this proves the disjoint-row
// contract for the wide-symbol backend too.
func TestEncodeBlocksShardConcurrent(t *testing.T) {
	const k, h, nb, size = 20, 5, 4, 64
	c, err := New(k, h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	data := make([][]byte, nb*k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	want := make([][]byte, nb*h)
	if err := c.EncodeBlocksShard(data, want, 0, 1); err != nil {
		t.Fatal(err)
	}
	for _, nshards := range []int{2, 4, 8} {
		got := make([][]byte, nb*h)
		errs := make([]error, nshards)
		var wg sync.WaitGroup
		for s := 0; s < nshards; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				errs[s] = c.EncodeBlocksShard(data, got, s, nshards)
			}(s)
		}
		wg.Wait()
		for s, err := range errs {
			if err != nil {
				t.Fatalf("shard %d: %v", s, err)
			}
		}
		for r := range want {
			if !bytes.Equal(got[r], want[r]) {
				t.Fatalf("nshards=%d: parity row %d differs", nshards, r)
			}
		}
	}
}

// TestEncodeBlocksShardErrors pins argument validation parity with rse.
func TestEncodeBlocksShardErrors(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, 8)
	for i := range data {
		data[i] = make([]byte, 16)
	}
	parity := make([][]byte, 4)
	if err := c.EncodeBlocksShard(data, parity, -1, 2); err == nil {
		t.Error("negative shard accepted")
	}
	if err := c.EncodeBlocksShard(data, parity, 2, 2); err == nil {
		t.Error("shard >= nshards accepted")
	}
	for s := 0; s < 3; s++ {
		if err := c.EncodeBlocksShard(data[:3], parity, s, 3); err == nil {
			t.Errorf("shard %d: ragged data accepted", s)
		}
		if err := c.EncodeBlocksShard(data, parity[:3], s, 3); err == nil {
			t.Errorf("shard %d: short parity accepted", s)
		}
	}
}
