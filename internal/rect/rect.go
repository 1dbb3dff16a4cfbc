// Package rect implements the XOR-only rectangular (interleaved parity)
// code of Bui-Xuan et al., "Lightweight FEC: Rectangular Codes with
// Minimum Feedback Information": the k data shards of a transmission
// group are split into d interleaved classes by seq modulo d, and parity
// j is the plain XOR of the data shards with i % d == j. Encoding a
// parity touches only ceil(k/d) shards with word-wide XORs — no Galois
// tables, no multiplications — so the per-byte cost is a small fraction
// of Reed-Solomon's k multiply-adds. The price is recovery power: the
// code repairs at most one loss per class (h = d parities repair up to d
// scattered losses, but two losses landing in one class are
// unrecoverable), which is exactly the regime the adaptive controller's
// low-loss rungs select it for.
//
// The shard layout matches internal/rse: a block is k data shards at
// indices [0, k) followed by d parities at [k, k+d), parity j covering
// class j. k + d is capped at 64 so a present-shard bitmap fits one
// word; ShortfallBits is the codec-aware replacement for the MDS
// "k minus present" deficit rule, which does not hold for rectangular
// codes.
package rect

import (
	"fmt"
	"math/bits"

	"rmfec/internal/gf256"
)

// MaxBlock caps k + d so per-receiver shard bitmaps fit in a uint64,
// matching the internal/field constraint for aggregated feedback.
const MaxBlock = 64

// Errors returned by the rectangular codec.
var (
	ErrBadParams      = fmt.Errorf("rect: invalid (k, d)")
	ErrBadShardCount  = fmt.Errorf("rect: wrong shard count")
	ErrBadParityIndex = fmt.Errorf("rect: parity index out of range")
	ErrShardSize      = fmt.Errorf("rect: inconsistent shard sizes")
	ErrUnrecoverable  = fmt.Errorf("rect: more losses than one per class")
)

// Code is an interleaved XOR code over k data shards with d parity
// classes. It is stateless after construction and safe for concurrent
// use: encoding and reconstruction write only caller-provided buffers.
type Code struct {
	k, d int
	// classMask[j] is the bitmap of data shard indices in class j
	// (i % d == j), precomputed for ShortfallBits.
	classMask []uint64
}

// New returns the interleaved XOR code with k data shards and d parity
// classes. Requires 1 <= d <= k and k + d <= MaxBlock.
func New(k, d int) (*Code, error) {
	if d < 1 || d > k || k+d > MaxBlock {
		return nil, fmt.Errorf("%w: k=%d d=%d (need 1 <= d <= k, k+d <= %d)", ErrBadParams, k, d, MaxBlock)
	}
	c := &Code{k: k, d: d, classMask: make([]uint64, d)}
	for i := 0; i < k; i++ {
		c.classMask[i%d] |= 1 << uint(i)
	}
	return c, nil
}

// K returns the number of data shards per block.
func (c *Code) K() int { return c.k }

// N returns the total shard count k + d.
func (c *Code) N() int { return c.k + c.d }

// validateEncode checks one block of data shards and returns the shared
// shard size.
func (c *Code) validateEncode(data [][]byte) (int, error) {
	if len(data) != c.k {
		return 0, fmt.Errorf("%w: %d data shards, want %d", ErrBadShardCount, len(data), c.k)
	}
	size := len(data[0])
	if size == 0 {
		return 0, fmt.Errorf("%w: shard 0 empty", ErrShardSize)
	}
	for i, s := range data {
		if len(s) != size {
			return 0, fmt.Errorf("%w: shard %d is %d bytes, want %d", ErrShardSize, i, len(s), size)
		}
	}
	return size, nil
}

// sizeFor returns dst resized to size bytes, reusing its backing array
// when capacity allows (the zero-length-with-spare-capacity recycling
// contract shared with internal/rse).
func sizeFor(dst []byte, size int) []byte {
	if cap(dst) >= size {
		return dst[:size]
	}
	return make([]byte, size)
}

// encodeRow XORs class j of data into dst, which must be zeroed or
// freshly overwritten by the first member copy.
func (c *Code) encodeRow(j int, data [][]byte, dst []byte) {
	first := true
	for i := j; i < c.k; i += c.d {
		if first {
			copy(dst, data[i])
			first = false
			continue
		}
		gf256.AddSlice(data[i], dst)
	}
}

// EncodeRows computes the run of parity shards j, ..., j+len(dst)-1 (the
// XORs of data classes j, ...) into dst, each entry resized to the data
// length, reusing its backing array when it has the capacity.
func (c *Code) EncodeRows(j int, data, dst [][]byte) error {
	if j < 0 || j+len(dst) > c.d {
		return fmt.Errorf("%w: rows [%d,%d) not in [0,%d)", ErrBadParityIndex, j, j+len(dst), c.d)
	}
	size, err := c.validateEncode(data)
	if err != nil {
		return err
	}
	for r := range dst {
		dst[r] = sizeFor(dst[r], size)
		c.encodeRow(j+r, data, dst[r])
	}
	return nil
}

// EncodeBlocks batch-encodes nb consecutive blocks: data holds nb*k data
// shards, parity nb*d slices which are resized and overwritten. Row j of
// block b is byte for byte what EncodeRows(j) writes for that block.
func (c *Code) EncodeBlocks(data, parity [][]byte) error {
	if len(data)%c.k != 0 {
		return fmt.Errorf("%w: %d data shards, want a multiple of %d", ErrBadShardCount, len(data), c.k)
	}
	nb := len(data) / c.k
	if len(parity) != nb*c.d {
		return fmt.Errorf("%w: %d parity shards, want %d", ErrBadShardCount, len(parity), nb*c.d)
	}
	for b := 0; b < nb; b++ {
		if err := c.EncodeRows(0, data[b*c.k:(b+1)*c.k], parity[b*c.d:(b+1)*c.d]); err != nil {
			return fmt.Errorf("block %d: %w", b, err)
		}
	}
	return nil
}

// Reconstruct rebuilds missing data shards in place. shards must have
// length k+d with data at [0, k) and parities at [k, k+d); missing
// shards are nil or zero-length, present shards share one non-zero
// length. Each class repairs at most one missing data shard (XOR of the
// class parity with the surviving members); a class with two or more
// missing data shards, or one missing data shard and a missing parity,
// fails with ErrUnrecoverable. Missing parity shards are otherwise left
// untouched.
//
// Allocation contract (shared with rse.Reconstruct): a missing shard
// passed as a zero-length slice with capacity >= the shard length is
// rebuilt into its own backing array, so recycling callers pay no
// steady-state allocation.
func (c *Code) Reconstruct(shards [][]byte) error {
	if len(shards) != c.k+c.d {
		return fmt.Errorf("%w: %d shards, want %d", ErrBadShardCount, len(shards), c.k+c.d)
	}
	size := 0
	for i, s := range shards {
		if len(s) == 0 {
			continue
		}
		if size == 0 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("%w: shard %d is %d bytes, want %d", ErrShardSize, i, len(s), size)
		}
	}
	if size == 0 {
		return fmt.Errorf("%w: no shards present", ErrShardSize)
	}
	for j := 0; j < c.d; j++ {
		miss := -1
		for i := j; i < c.k; i += c.d {
			if len(shards[i]) != 0 {
				continue
			}
			if miss >= 0 {
				return fmt.Errorf("%w: class %d missing shards %d and %d", ErrUnrecoverable, j, miss, i)
			}
			miss = i
		}
		if miss < 0 {
			continue // class intact
		}
		parity := shards[c.k+j]
		if len(parity) == 0 {
			return fmt.Errorf("%w: class %d missing shard %d and its parity", ErrUnrecoverable, j, miss)
		}
		out := sizeFor(shards[miss], size)
		copy(out, parity)
		for i := j; i < c.k; i += c.d {
			if i != miss {
				gf256.AddSlice(shards[i], out)
			}
		}
		shards[miss] = out
	}
	return nil
}

// ShortfallBits returns the number of repair packets still needed to
// complete a block given the present-shard bitmap have (bit i set when
// shard i is held). For each class it is the count of missing data
// members minus one if the class parity is held — the codec-aware
// generalisation of the MDS deficit max(0, k - popcount(have)), which
// overstates recovery power for rectangular codes.
func (c *Code) ShortfallBits(have uint64) int {
	short := 0
	for j := 0; j < c.d; j++ {
		missing := bits.OnesCount64(c.classMask[j] &^ have)
		if missing == 0 {
			continue
		}
		if have&(1<<uint(c.k+j)) != 0 {
			missing--
		}
		short += missing
	}
	return short
}
