// Package rse16 is the wide-symbol sibling of package rse: a systematic
// Reed-Solomon erasure code over GF(2^16) whose FEC blocks may span up to
// 65536 packets — far beyond the 256-packet ceiling of GF(2^8). The paper
// (Section 2.2) notes exactly this trade-off in symbol size m, and its
// burst-loss analysis (Section 4.2) motivates very large transmission
// groups; rse16 is what makes k in the thousands possible.
//
// Packets must have even length: byte pairs are treated as big-endian
// 16-bit symbols and len(packet)/2 parallel codes run per block, the
// direct analogue of McAuley's parallel m-bit encoders.
//
// Encoding one parity costs O(k * packet). Construction and decoding
// exploit the Vandermonde structure: the required inverses come from
// Lagrange basis polynomials in O(k^2) rather than O(k^3) elimination, so
// even k in the thousands decodes in milliseconds plus O(lost * k *
// packet) for the data itself. For the small k of interactive protocols
// package rse remains the right choice; rse16 targets bulk distribution
// with huge groups.
package rse16

import (
	"errors"
	"fmt"

	"rmfec/internal/gf16"
)

// MaxBlock is the largest supported block size n = k+h.
const MaxBlock = gf16.Order

// MaxK bounds the group size. The Lagrange-based inverses are O(k^2), but
// per-shard encode/decode work still grows linearly with k, so beyond a
// few thousand packets per block a sparse-graph code would serve better.
const MaxK = 4096

// Errors returned by the codec.
var (
	ErrTooFewShards  = errors.New("rse16: fewer than k shards present")
	ErrShardSize     = errors.New("rse16: shards must share one even size")
	ErrBadShardCount = errors.New("rse16: wrong number of shards")
	ErrBadIndex      = errors.New("rse16: parity index out of range")
)

// Code is a systematic (k+h, k) erasure code over GF(2^16). Immutable and
// safe for concurrent use after construction.
type Code struct {
	k, h   int
	parity [][]uint16 // h rows of k coefficients
}

// New constructs a code with k data and h parity shards per block.
func New(k, h int) (*Code, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("rse16: k = %d, need 1..%d", k, MaxK)
	}
	if h < 0 || k+h > MaxBlock {
		return nil, fmt.Errorf("rse16: invalid h = %d for k = %d", h, k)
	}
	c := &Code{k: k, h: h}
	if h == 0 {
		return c, nil
	}
	// Systematic construction: G = V * inv(V_top) for an (k+h) x k
	// Vandermonde V over distinct points 0..k+h-1; any k rows of G are
	// invertible because any k rows of V are. inv(V_top) comes from the
	// Lagrange basis in O(k^2). Row k+j of G is then the evaluation of
	// the degree-(k-1) interpolation polynomials at the point k+j:
	// G[k+j][col] = L_col(k+j).
	points := make([]uint16, k)
	for i := range points {
		points[i] = uint16(i)
	}
	topInv := lagrangeInverse(points) // topInv[c][r] = coeff x^c of L_r
	c.parity = make([][]uint16, h)
	for j := 0; j < h; j++ {
		x := uint16(k + j)
		row := make([]uint16, k)
		// L_col evaluated at x via Horner over its coefficient column.
		for col := 0; col < k; col++ {
			var acc uint16
			for d := k - 1; d >= 0; d-- {
				acc = gf16.Mul(acc, x) ^ topInv[d][col]
			}
			row[col] = acc
		}
		c.parity[j] = row
	}
	return c, nil
}

// lagrangeInverse returns the inverse of the k x k Vandermonde matrix
// V[r][c] = xs[r]^c for distinct points xs, as M[c][r] = the coefficient
// of x^c in the Lagrange basis polynomial L_r (L_r(xs[r]) = 1, zero at the
// other points). Runs in O(k^2).
func lagrangeInverse(xs []uint16) [][]uint16 {
	k := len(xs)
	// master(x) = prod_r (x + xs[r]) (char 2), master[d] = coeff of x^d.
	master := make([]uint16, k+1)
	master[0] = 1
	for deg, x := range xs {
		for d := deg + 1; d >= 1; d-- {
			master[d] = master[d-1] ^ gf16.Mul(x, master[d])
		}
		master[0] = gf16.Mul(x, master[0])
	}
	m := make([][]uint16, k)
	for c := range m {
		m[c] = make([]uint16, k)
	}
	q := make([]uint16, k)
	for r, x := range xs {
		// Synthetic division: q = master / (x + xs[r]), degree k-1.
		q[k-1] = master[k]
		for d := k - 1; d >= 1; d-- {
			q[d-1] = master[d] ^ gf16.Mul(x, q[d])
		}
		// Normalise so that L_r(xs[r]) = 1.
		var den uint16
		for d := k - 1; d >= 0; d-- {
			den = gf16.Mul(den, x) ^ q[d]
		}
		invDen := gf16.Inv(den)
		for c := 0; c < k; c++ {
			m[c][r] = gf16.Mul(q[c], invDen)
		}
	}
	return m
}

// K returns the data shard count, H the parity count, N the block size.
func (c *Code) K() int { return c.k }

// H returns the number of parity shards per block.
func (c *Code) H() int { return c.h }

// N returns the block size k+h.
func (c *Code) N() int { return c.k + c.h }

// toSymbols reinterprets a byte shard as big-endian uint16 symbols.
func toSymbols(b []byte) []uint16 {
	out := make([]uint16, len(b)/2)
	for i := range out {
		out[i] = uint16(b[2*i])<<8 | uint16(b[2*i+1])
	}
	return out
}

func fromSymbols(sym []uint16, dst []byte) {
	for i, s := range sym {
		dst[2*i] = byte(s >> 8)
		dst[2*i+1] = byte(s)
	}
}

// sizeFor resizes dst to size, reusing its capacity when possible; the
// contents are left for the caller to overwrite.
func sizeFor(dst []byte, size int) []byte {
	if cap(dst) < size {
		return make([]byte, size)
	}
	return dst[:size]
}

// checkSizes returns the common length of the present shards; nil and
// zero-length shards are missing.
func checkSizes(shards [][]byte) (int, error) {
	size := -1
	for _, s := range shards {
		if len(s) == 0 {
			continue
		}
		if len(s)%2 != 0 {
			return 0, ErrShardSize
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, ErrShardSize
		}
	}
	if size < 0 {
		return 0, ErrTooFewShards
	}
	return size, nil
}

// validateData checks the data-shard slice once so encode loops can run
// unchecked.
func (c *Code) validateData(data [][]byte) (size int, err error) {
	if len(data) != c.k {
		return 0, fmt.Errorf("%w: %d data shards, want %d", ErrBadShardCount, len(data), c.k)
	}
	for _, d := range data {
		if len(d) == 0 {
			return 0, fmt.Errorf("%w: missing data shard", ErrBadShardCount)
		}
	}
	return checkSizes(data)
}

// EncodeParity computes parity shard j from the k data shards. Shards
// whose generator coefficient is zero are skipped before the byte-to-
// symbol conversion, so sparse rows cost nothing.
func (c *Code) EncodeParity(j int, data [][]byte) ([]byte, error) {
	if j < 0 || j >= c.h {
		return nil, fmt.Errorf("%w: %d", ErrBadIndex, j)
	}
	size, err := c.validateData(data)
	if err != nil {
		return nil, err
	}
	acc := make([]uint16, size/2)
	row := c.parity[j]
	for i, d := range data {
		if row[i] != 0 {
			gf16.MulAddSlice(row[i], toSymbols(d), acc)
		}
	}
	out := make([]byte, size)
	fromSymbols(acc, out)
	return out, nil
}

// Encode fills parity (length h) with all parity shards, reusing the
// capacity of any slices already present in parity. The data shards are
// converted to symbols once for all h parities (EncodeParity would
// convert them h times).
func (c *Code) Encode(data [][]byte, parity [][]byte) error {
	if len(parity) != c.h {
		return fmt.Errorf("%w: %d parity slots, want %d", ErrBadShardCount, len(parity), c.h)
	}
	if c.h == 0 {
		return nil
	}
	size, err := c.validateData(data)
	if err != nil {
		return err
	}
	syms := make([][]uint16, c.k)
	for i, d := range data {
		syms[i] = toSymbols(d)
	}
	acc := make([]uint16, size/2)
	for j := 0; j < c.h; j++ {
		row := c.parity[j]
		gf16.MulSlice(row[0], syms[0], acc)
		for i := 1; i < c.k; i++ {
			gf16.MulAddSlice(row[i], syms[i], acc)
		}
		parity[j] = sizeFor(parity[j], size)
		fromSymbols(acc, parity[j])
	}
	return nil
}

// EncodeBlocksShard encodes nb consecutive FEC blocks in one call — data
// holds nb*k data shards (block b at [b*k, (b+1)*k)) and parity nb*h
// parity slices, resized and overwritten like Encode — but only the parity
// rows owned by shard `shard` of `nshards` partitions, mirroring
// rse.EncodeBlocksShard: ownership is by global row index r = b*h + j with
// r % nshards == shard, every shard validates every block identically, and
// running all shards — serially or concurrently over one shared parity
// slice — is byte-identical to shard 0 of 1 because each row is computed
// by the same arithmetic regardless of partitioning. The byte-to-symbol conversion of a block's
// data shards runs once per (block, shard) with at least one owned row,
// so a shard that owns no row of a block skips the block entirely after
// validation.
func (c *Code) EncodeBlocksShard(data, parity [][]byte, shard, nshards int) error {
	if nshards < 1 || shard < 0 || shard >= nshards {
		return fmt.Errorf("rse16: shard %d of %d out of range", shard, nshards)
	}
	if len(data)%c.k != 0 {
		return fmt.Errorf("%w: %d data shards, want a multiple of %d", ErrBadShardCount, len(data), c.k)
	}
	nb := len(data) / c.k
	if len(parity) != nb*c.h {
		return fmt.Errorf("%w: %d parity shards, want %d", ErrBadShardCount, len(parity), nb*c.h)
	}
	var syms [][]uint16
	var acc []uint16
	for b := 0; b < nb; b++ {
		blockData := data[b*c.k : (b+1)*c.k]
		size, err := c.validateData(blockData)
		if err != nil {
			return fmt.Errorf("block %d: %w", b, err)
		}
		blockParity := parity[b*c.h : (b+1)*c.h]
		converted := false
		for j := 0; j < c.h; j++ {
			if (b*c.h+j)%nshards != shard {
				continue
			}
			if !converted {
				if syms == nil {
					syms = make([][]uint16, c.k)
				}
				for i, d := range blockData {
					syms[i] = toSymbols(d)
				}
				if cap(acc)*2 < size {
					acc = make([]uint16, size/2)
				} else {
					acc = acc[:size/2]
				}
				converted = true
			}
			row := c.parity[j]
			gf16.MulSlice(row[0], syms[0], acc)
			for i := 1; i < c.k; i++ {
				gf16.MulAddSlice(row[i], syms[i], acc)
			}
			blockParity[j] = sizeFor(blockParity[j], size)
			fromSymbols(acc, blockParity[j])
		}
	}
	return nil
}

// Reconstruct rebuilds every missing data shard in place; shards has
// length n with nil or zero-length slices marking losses. At least k shards
// must be present. As in rse and rect, a missing shard passed as a
// zero-length slice with capacity >= the shard length is rebuilt into its
// own backing array; nil (or short) ones are freshly allocated.
func (c *Code) Reconstruct(shards [][]byte) error {
	n := c.N()
	if len(shards) != n {
		return fmt.Errorf("%w: %d shards, want %d", ErrBadShardCount, len(shards), n)
	}
	size, err := checkSizes(shards)
	if err != nil {
		return err
	}
	missing := make([]int, 0, c.k)
	for i := 0; i < c.k; i++ {
		if len(shards[i]) == 0 {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	chosen := make([]int, 0, c.k)
	for i := 0; i < n && len(chosen) < c.k; i++ {
		if len(shards[i]) != 0 {
			chosen = append(chosen, i)
		}
	}
	if len(chosen) < c.k {
		return fmt.Errorf("%w: %d of %d present", ErrTooFewShards, len(chosen), c.k)
	}
	// Each received shard is G[c_r] . d = (V[c_r] . inv(V_top)) . d, so
	// with z = inv(V_chosen) . y the data is d = V_top . z, i.e.
	// d_i = rowV(i) . inv(V_chosen) . y. The Lagrange form gives
	// inv(V_chosen) in O(k^2); each missing shard then needs one
	// vector-matrix product for its weights plus the O(k*size) data pass.
	points := make([]uint16, c.k)
	for r, idx := range chosen {
		points[r] = uint16(idx)
	}
	vinv := lagrangeInverse(points) // vinv[m][r]
	received := make([][]uint16, len(chosen))
	for r, idx := range chosen {
		received[r] = toSymbols(shards[idx])
	}
	weights := make([]uint16, c.k)
	for _, i := range missing {
		// weights[r] = sum_m (i^m) * vinv[m][r], Horner over m per column
		// would re-walk powers; accumulate powers of i once instead.
		for r := range weights {
			weights[r] = 0
		}
		xi := uint16(i)
		pow := uint16(1)
		for m := 0; m < c.k; m++ {
			if pow != 0 {
				gf16.MulAddSlice(pow, vinv[m], weights)
			}
			pow = gf16.Mul(pow, xi)
		}
		acc := make([]uint16, size/2)
		for r := range chosen {
			gf16.MulAddSlice(weights[r], received[r], acc)
		}
		shards[i] = sizeFor(shards[i], size)
		fromSymbols(acc, shards[i])
	}
	return nil
}
