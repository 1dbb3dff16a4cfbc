package rse

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitJoinRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, size := range []int{0, 1, 3, 4, 100, 1024, 4097} {
		for _, k := range []int{1, 2, 7, 20} {
			msg := make([]byte, size)
			rng.Read(msg)
			shards, err := Split(msg, k)
			if err != nil {
				t.Fatalf("Split(%d bytes, k=%d): %v", size, k, err)
			}
			if len(shards) != k {
				t.Fatalf("Split returned %d shards, want %d", len(shards), k)
			}
			for i := 1; i < k; i++ {
				if len(shards[i]) != len(shards[0]) {
					t.Fatalf("unequal shard sizes")
				}
			}
			got, err := Join(shards)
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("round trip failed for size=%d k=%d", size, k)
			}
		}
	}
}

func TestSplitSized(t *testing.T) {
	msg := []byte("hello multicast world")
	shards, err := SplitSized(msg, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shards {
		if len(s) != 10 {
			t.Fatalf("shard size %d, want 10", len(s))
		}
	}
	got, err := Join(shards)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("Join = %q, %v", got, err)
	}
	if _, err := SplitSized(make([]byte, 100), 4, 10); err == nil {
		t.Error("oversized message accepted")
	}
	if _, err := SplitSized(msg, 0, 10); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSplitThroughCodec(t *testing.T) {
	// End-to-end: split a message, encode parities, lose h shards,
	// reconstruct, join.
	const k, h = 8, 3
	c := MustNew(k, h)
	msg := make([]byte, 3000)
	rand.New(rand.NewSource(21)).Read(msg)
	data, err := Split(msg, k)
	if err != nil {
		t.Fatal(err)
	}
	parity := make([][]byte, h)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	shards[0], shards[4], shards[9] = nil, nil, nil
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	got, err := Join(shards[:k])
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("end-to-end join failed: %v", err)
	}
}

func TestJoinErrors(t *testing.T) {
	if _, err := Join(nil); !errors.Is(err, ErrBadShardCount) {
		t.Errorf("empty: %v", err)
	}
	if _, err := Join([][]byte{{1}, nil}); !errors.Is(err, ErrTooFewShards) {
		t.Errorf("nil shard: %v", err)
	}
	if _, err := Join([][]byte{{1, 2}, {3}}); !errors.Is(err, ErrShardSize) {
		t.Errorf("ragged: %v", err)
	}
	if _, err := Join([][]byte{{0}, {0}}); !errors.Is(err, ErrCorruptPayload) {
		t.Errorf("short header: %v", err)
	}
	bad := [][]byte{{0xff, 0xff, 0xff, 0xff}, {0, 0, 0, 0}}
	if _, err := Join(bad); !errors.Is(err, ErrCorruptPayload) {
		t.Errorf("length overflow: %v", err)
	}
}

func TestSplitQuick(t *testing.T) {
	err := quick.Check(func(msg []byte, kRaw uint8) bool {
		k := int(kRaw%32) + 1
		shards, err := Split(msg, k)
		if err != nil {
			return false
		}
		got, err := Join(shards)
		if err != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}
