// Package rse implements the systematic Reed-Solomon erasure (RSE) code
// used by the paper for parity-based loss recovery.
//
// A transmission group (TG) of k equal-size data packets d_1..d_k is
// extended with h parity packets p_1..p_h; the n = k+h packets form an FEC
// block. A receiver can reconstruct all k data packets from ANY k of the n
// block packets. Because the code is systematic the common no-loss case
// requires no decoding at all, and the decoding work grows linearly with
// the number of lost data packets — both properties the paper relies on
// (Section 2).
//
// The construction follows Rizzo's software coder: an n x k Vandermonde
// matrix over GF(2^8) with distinct evaluation points is post-multiplied by
// the inverse of its top k x k block, yielding a generator matrix whose top
// k rows are the identity and any k rows of which are invertible. Packets
// longer than one byte are handled symbol-wise: byte position s of every
// parity packet depends only on byte position s of the data packets, i.e.
// the coder runs len(packet) parallel GF(2^8) codes exactly as described by
// McAuley (symbol size m = 8).
//
// Decoding keeps that proportionality in its matrix work too (see
// DESIGN.md "Codec performance"): with l data packets lost, the k-l
// present ones are already solved, so Reconstruct inverts only the l x l
// block of parity coefficients that couples the missing packets to the
// parities standing in for them — O(l^3 + l^2 k) field operations, against
// the l*k*len(packet) of the data pass — and no decode matrix is cached.
// The one structure on the hot path is a scratch free-list holding the
// index slices and that small system, so Reconstruct performs no heap
// allocations on any loss pattern when the caller also recycles the output
// shards (pass a missing shard as a zero-length slice with spare capacity
// instead of nil).
//
// One Code serves both symbol sizes of Section 2.2, where a block of n
// packets needs n < 2^m. New builds the code over GF(2^8) (m = 8, blocks
// up to MaxBlock packets); NewWide builds the same systematic Vandermonde
// code at the same points over GF(2^16) (package gf16), for the very large
// transmission groups Section 4.2 recommends against burst loss: k up to
// MaxWideK, k+h up to MaxWideBlock. A wide code reads each big-endian byte
// pair of a packet as one symbol, so its shards must have even length. The
// field supplies only the generator rows, the small solve and the slice
// kernels; validation, encoding, the choice of shards and the decode
// subsystem are shared.
package rse

import (
	"errors"
	"fmt"
	"sync"

	"rmfec/internal/gf16"
	"rmfec/internal/gf256"
	"rmfec/internal/metrics"
)

// Block limits. MaxBlock bounds New's n = k+h by the number of distinct
// evaluation points in GF(2^8); MaxWideBlock does the same for NewWide in
// GF(2^16), and MaxWideK caps a wide group, whose per-shard work still
// grows linearly with k.
const (
	MaxBlock     = 256
	MaxWideBlock = gf16.Order
	MaxWideK     = 4096
)

// MaxNarrowBlock is the largest block k+h the protocol engines code over
// GF(2^8), the paper's n < 2^m at m = 8; a larger block takes NewWide and
// an even shard size.
const MaxNarrowBlock = MaxBlock - 1

// Errors returned by the codec.
var (
	ErrTooFewShards   = errors.New("rse: fewer than k shards present")
	ErrShardSize      = errors.New("rse: shards have inconsistent sizes")
	ErrBadShardCount  = errors.New("rse: wrong number of shards")
	ErrBadParityIndex = errors.New("rse: parity index out of range")
)

// Code is a systematic (n, k) Reed-Solomon erasure code over GF(2^8) or
// GF(2^16). The generator is immutable after construction; the decode
// scratch free-list is guarded by an internal mutex, so a Code is safe for
// concurrent use.
type Code struct {
	k, h int
	wide bool // GF(2^16): symbols are big-endian byte pairs
	// The h x k parity generator rows of G = [I; P], row-major, in the
	// code's field: p8 for GF(2^8), p16 for GF(2^16).
	p8  []byte
	p16 []uint16
	gen gf256.Rows // p8 prepared for the row product, built once in New

	mu      sync.Mutex
	scratch []*decodeScratch // free-list of decode scratch

	ins Instruments // optional live counters; zero value = disabled
}

// Instruments is the codec's optional live metric set (see
// internal/metrics): symbol throughput on both paths and the count of
// decodes that solved a parity subsystem. Any field may be nil; increments
// on nil counters are no-ops, so partial instrumentation is fine.
type Instruments struct {
	// EncodeBytes counts parity bytes produced (parity rows x shard size).
	EncodeBytes *metrics.Counter
	// DecodeBytes counts data bytes reconstructed (missing rows x size).
	DecodeBytes *metrics.Counter
	// CacheHits is retired: the inversion cache it counted is gone and
	// nothing increments it. The field and its series stay registered until
	// the benchmark's cold-row gate, which reads it, is folded away (see
	// ROADMAP).
	CacheHits *metrics.Counter
	// CacheMisses counts Reconstruct calls that solved a parity subsystem
	// (every call with a data shard missing). Retired with CacheHits; the
	// name is the series' history, not its meaning.
	CacheMisses *metrics.Counter
}

// Instrument installs the given instrument set on the code. It is intended
// to be called once, right after New, before the code is shared between
// goroutines.
func (c *Code) Instrument(ins Instruments) { c.ins = ins }

// RegisterInstruments builds the codec's standard instrument set on r
// (metric names rse_*; see DESIGN.md "Observability"). A nil registry
// yields the zero (disabled) set.
func RegisterInstruments(r *metrics.Registry) Instruments {
	if r == nil {
		return Instruments{}
	}
	cache := func(result string) *metrics.Counter {
		return r.Counter("rse_inv_cache_total",
			"retired: decodes that solved a parity subsystem count as miss, hit stays 0",
			metrics.Label{Key: "result", Value: result})
	}
	return Instruments{
		EncodeBytes: r.Counter("rse_encode_bytes_total",
			"parity bytes produced by the Reed-Solomon encoder"),
		DecodeBytes: r.Counter("rse_decode_bytes_total",
			"data bytes reconstructed by the Reed-Solomon decoder"),
		CacheHits:   cache("hit"),
		CacheMisses: cache("miss"),
	}
}

// decodeScratch is one Reconstruct call's working set, sized at
// allocation for the worst pattern the code can decode (l = min(k, h) data
// shards missing) so no call grows it.
type decodeScratch struct {
	missing, chosen []int
	rows            []byte   // GF(2^8) l x (l+k) system: see decodeRows
	rows16          []uint16 // the same for a GF(2^16) code
	dec             gf256.Rows
	io              [][]byte // the row product's k sources, then its l outputs
}

// newCode validates (k, h) against a field's limits.
func newCode(k, h, maxK, maxN int) (*Code, error) {
	if k < 1 || k > maxK {
		return nil, fmt.Errorf("rse: k = %d, need 1..%d", k, maxK)
	}
	if h < 0 {
		return nil, fmt.Errorf("rse: h = %d, need h >= 0", h)
	}
	if k+h > maxN {
		return nil, fmt.Errorf("rse: block size k+h = %d exceeds %d", k+h, maxN)
	}
	return &Code{k: k, h: h}, nil
}

// New returns a code over GF(2^8) with k data shards and h parity shards
// per block. Constraints: k >= 1, h >= 0, k+h <= MaxBlock.
func New(k, h int) (*Code, error) {
	c, err := newCode(k, h, MaxBlock, MaxBlock)
	if err != nil || h == 0 {
		// A code with no parities encodes nothing and Reconstruct can
		// only verify completeness: skip the O(k^3) construction.
		return c, err
	}
	n := k + h
	v := gf256.Vandermonde(n, k, 0)
	topRows := make([]int, k)
	for i := range topRows {
		topRows[i] = i
	}
	topInv, err := v.SubMatrix(topRows).Invert()
	if err != nil {
		// Cannot happen: a square Vandermonde block with distinct points
		// is always invertible.
		return nil, fmt.Errorf("rse: internal construction failure: %w", err)
	}
	g := v.Mul(topInv)
	bottom := make([]int, h)
	for j := range bottom {
		bottom[j] = k + j
	}
	c.p8 = g.SubMatrix(bottom).Data
	c.gen.Set(c.p8, k)
	return c, nil
}

// NewWide returns the same code over GF(2^16), for blocks past GF(2^8):
// k <= MaxWideK, k+h <= MaxWideBlock, shards of even length. Its generator
// is G = V inv(V_top) at the points 0..k+h-1 as in New, so row k+j holds
// the Lagrange basis polynomials of the points 0..k-1 evaluated at x = k+j:
//
//	L_c(x) = prod_{r != c} (x + r) / (c + r)
//
// (addition is subtraction in characteristic 2). The denominators are
// computed once, so the rows cost O(k^2 + hk) field operations instead of
// an O(k^3) elimination.
func NewWide(k, h int) (*Code, error) {
	c, err := newCode(k, h, MaxWideK, MaxWideBlock)
	if err != nil {
		return nil, err
	}
	c.wide = true
	den := make([]uint16, k) // den[i] = prod_{r != i} (i + r)
	for i := range den {
		d := uint16(1)
		for r := 0; r < k; r++ {
			if r != i {
				d = gf16.Mul(d, uint16(i^r))
			}
		}
		den[i] = d
	}
	c.p16 = make([]uint16, h*k)
	for j := 0; j < h; j++ {
		x := k + j
		all := uint16(1) // prod_r (x + r), non-zero: x is no data point
		for r := 0; r < k; r++ {
			all = gf16.Mul(all, uint16(x^r))
		}
		row := c.p16[j*k : (j+1)*k]
		for i := range row {
			row[i] = gf16.Div(all, gf16.Mul(uint16(x^i), den[i]))
		}
	}
	return c, nil
}

// K returns the number of data shards per block.
func (c *Code) K() int { return c.k }

// H returns the number of parity shards per block.
func (c *Code) H() int { return c.h }

// N returns the block size k+h.
func (c *Code) N() int { return c.k + c.h }

// Wide reports whether the code runs over GF(2^16) (NewWide).
func (c *Code) Wide() bool { return c.wide }

// checkSizes returns the common length of the present shards: those not
// nil and, under Reconstruct's missing-shard contract (sparse), not
// zero-length either — which lets callers hand in recycled buffers with
// spare capacity. A GF(2^16) code also needs the length even.
func (c *Code) checkSizes(shards [][]byte, sparse bool) (size int, err error) {
	size = -1
	for _, s := range shards {
		if s == nil || sparse && len(s) == 0 {
			continue
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
	if c.wide && size%2 != 0 {
		return 0, fmt.Errorf("%w: %d bytes, GF(2^16) needs an even size", ErrShardSize, size)
	}
	return size, nil
}

// validateEncode checks the data-shard slice for EncodeRows once, so the
// row loops can run unchecked.
func (c *Code) validateEncode(data [][]byte) (size int, err error) {
	if len(data) != c.k {
		return 0, fmt.Errorf("%w: %d data shards, want %d", ErrBadShardCount, len(data), c.k)
	}
	for _, d := range data {
		if d == nil {
			return 0, fmt.Errorf("%w: nil data shard", ErrBadShardCount)
		}
	}
	return c.checkSizes(data, false)
}

// sizeFor resizes dst to size, reusing its capacity when possible. The
// contents are left arbitrary; callers overwrite them.
func sizeFor(dst []byte, size int) []byte {
	if cap(dst) < size {
		return make([]byte, size)
	}
	return dst[:size]
}

// Encode computes all h parity shards from the k data shards. data must
// hold exactly k non-nil equal-length slices; parity must hold exactly h
// slices which are resized (reallocated if needed) to the data length and
// overwritten. The amount of work is proportional to k*h*len(shard).
func (c *Code) Encode(data, parity [][]byte) error {
	if len(parity) != c.h {
		return fmt.Errorf("%w: %d parity shards, want %d", ErrBadShardCount, len(parity), c.h)
	}
	return c.EncodeRows(0, data, parity)
}

// EncodeRows computes the run of parity shards j, j+1, ...,
// j+len(dst)-1 into dst in one pass over the data, resizing and
// overwriting the entries like Encode: an entry with the capacity, such as
// a wire frame's payload region, is written in place. No entry may alias
// a data shard. This is the paper's integrated protocol NP's encoder,
// where parities are produced on demand one retransmission round at a
// time rather than all up front.
func (c *Code) EncodeRows(j int, data, dst [][]byte) error {
	if j < 0 || j+len(dst) > c.h {
		return fmt.Errorf("%w: rows [%d,%d) not in [0,%d)", ErrBadParityIndex, j, j+len(dst), c.h)
	}
	size, err := c.validateEncode(data)
	if err != nil || len(dst) == 0 {
		return err
	}
	for r := range dst {
		dst[r] = sizeFor(dst[r], size)
	}
	c.ins.EncodeBytes.Add(uint64(len(dst)) * uint64(size))
	if !c.wide {
		c.gen.MulRows(j, data, dst)
		return nil
	}
	for r, out := range dst {
		row := c.p16[(j+r)*c.k : (j+r+1)*c.k]
		gf16.MulSlice(row[0], data[0], out)
		for i := 1; i < c.k; i++ {
			gf16.MulAddSlice(row[i], data[i], out)
		}
	}
	return nil
}

// EncodeBlocks encodes nb consecutive FEC blocks in one call: data holds
// nb*k data shards (block b's shards at [b*k, (b+1)*k)) and parity holds
// nb*h parity slices, resized and overwritten like Encode, which it runs
// on each block in turn.
func (c *Code) EncodeBlocks(data, parity [][]byte) error {
	if c.k == 0 || len(data)%c.k != 0 {
		return fmt.Errorf("%w: %d data shards, want a multiple of %d", ErrBadShardCount, len(data), c.k)
	}
	nb := len(data) / c.k
	if len(parity) != nb*c.h {
		return fmt.Errorf("%w: %d parity shards, want %d", ErrBadShardCount, len(parity), nb*c.h)
	}
	for b := 0; b < nb; b++ {
		if err := c.Encode(data[b*c.k:(b+1)*c.k], parity[b*c.h:(b+1)*c.h]); err != nil {
			return fmt.Errorf("block %d: %w", b, err)
		}
	}
	return nil
}

// getScratch pops a decode scratch from the free-list, allocating on
// first use.
func (c *Code) getScratch() *decodeScratch {
	c.mu.Lock()
	var sc *decodeScratch
	if n := len(c.scratch); n > 0 {
		sc = c.scratch[n-1]
		c.scratch = c.scratch[:n-1]
	}
	c.mu.Unlock()
	if sc == nil {
		// scratch allocated on pool miss; recycled by putScratch
		sc = c.newScratch()
	}
	return sc
}

func (c *Code) newScratch() *decodeScratch {
	l := min(c.k, c.h)
	sc := &decodeScratch{missing: make([]int, 0, c.k), chosen: make([]int, 0, c.k)}
	if c.wide {
		sc.rows16 = make([]uint16, l*(l+c.k))
		return sc
	}
	sc.rows = make([]byte, l*(l+c.k))
	sc.io = make([][]byte, c.k+l)
	sc.dec.Set(sc.rows[:l*c.k], c.k) // sizes its matrices for the worst pattern
	return sc
}

func (c *Code) putScratch(sc *decodeScratch) {
	c.mu.Lock()
	// scratch pool growth is amortized across the session
	c.scratch = append(c.scratch, sc)
	c.mu.Unlock()
}

// decodeRows leaves in the scratch's rows (GF(2^8)) or rows16 (GF(2^16))
// the l = len(missing) decode rows of an erasure pattern as an l x (l+k)
// matrix: past its first l columns (the identity), row j holds the k
// coefficients that rebuild data shard missing[j] from the shards in
// chosen (the k-l present data shards, then l present parities). Because
// G = [I; P] is systematic, the present data shards are already solved and
// only the missing ones are unknowns: writing M for missing, D for the
// present data and Q for the chosen parities, y_Q = P[Q][M] x_M +
// P[Q][D] x_D, so with A = P[Q][M]
//
//	x_M = (A^-1 P[Q][D]) x_D + A^-1 y_Q
//
// (addition and subtraction coincide), and one elimination of the l rows
// [A | P[Q][D] | I] to [I | A^-1 P[Q][D] | A^-1] produces both factors:
// O(l^2 (l+k)) symbol operations. The rows are exactly rows M of the
// inverse of the k chosen generator rows — that inverse is unique — without
// the O(k^3) elimination over rows that were unit vectors to begin with.
func (c *Code) decodeRows(sc *decodeScratch, missing, chosen []int) error {
	l := len(missing)
	n := l * (l + c.k)
	var err error
	if c.wide {
		subsystem(c.p16, sc.rows16[:n], c.k, missing, chosen)
		err = gf16.SolveSmall(sc.rows16[:n], l, l+c.k)
	} else {
		subsystem(c.p8, sc.rows[:n], c.k, missing, chosen)
		err = gf256.SolveSmall(sc.rows[:n], l, l+c.k)
	}
	if err != nil {
		// Cannot happen for this generator matrix: any k rows are linearly
		// independent by construction, and A is singular only if the chosen
		// rows are dependent.
		return fmt.Errorf("rse: internal decode failure: %w", err)
	}
	return nil
}

// subsystem writes decodeRows' l x (l+k) system [A | P[Q][D] | I] from the
// parity generator rows p.
func subsystem[T byte | uint16](p, rows []T, k int, missing, chosen []int) {
	l := len(missing)
	w := l + k
	for q, idx := range chosen[k-l:] {
		prow, row := p[(idx-k)*k:(idx-k+1)*k], rows[q*w:(q+1)*w]
		for j, m := range missing {
			row[j] = prow[m]
		}
		for r, d := range chosen[:k-l] {
			row[l+r] = prow[d]
		}
		clear(row[k:])
		row[k+q] = 1
	}
}

// Reconstruct rebuilds every missing data shard in place. shards must have
// length n = k+h; missing shards are nil or zero-length, present shards
// must share one (non-zero) length. Data shards occupy indices [0,k),
// parities [k,n). At least k shards must be present. Missing parity
// shards are left untouched (recompute them with Encode if needed). The
// work is proportional to the number of missing data shards l, matching
// the paper's observation that decoding overhead is proportional to the
// loss count: l*k multiply-accumulates over the shard length, after the
// O(l^3 + l^2 k) bytes of decodeRows.
//
// Allocation contract: a missing shard passed as a zero-length slice with
// capacity >= the shard length is rebuilt into its own backing array, so
// a caller that recycles shard buffers makes steady-state Reconstruct
// allocation-free whatever the loss pattern (see
// TestReconstructSteadyStateAllocs, TestReconstructCyclingPatternsAllocs).
// Missing shards passed as nil are freshly allocated as before.
func (c *Code) Reconstruct(shards [][]byte) error {
	n := c.N()
	if len(shards) != n {
		return fmt.Errorf("%w: %d shards, want %d", ErrBadShardCount, len(shards), n)
	}
	size, err := c.checkSizes(shards, true)
	if err != nil {
		return err
	}

	sc := c.getScratch()
	defer c.putScratch(sc)
	// Pick k present shards: every present data shard (its generator row is
	// a unit vector, so it costs the solve nothing), then the first present
	// parities, one per missing data shard.
	missing, chosen := sc.missing[:0], sc.chosen[:0]
	for i := 0; i < c.k; i++ {
		if len(shards[i]) == 0 {
			// scratch slices carry capacity k; append cannot grow after first use
			missing = append(missing, i)
		} else {
			chosen = append(chosen, i)
		}
	}
	if len(missing) == 0 {
		return nil // systematic fast path: nothing to decode
	}
	for i := c.k; i < n && len(chosen) < c.k; i++ {
		if len(shards[i]) != 0 {
			chosen = append(chosen, i)
		}
	}
	if len(chosen) < c.k {
		return fmt.Errorf("%w: %d of %d present", ErrTooFewShards, len(chosen), c.k)
	}
	if err := c.decodeRows(sc, missing, chosen); err != nil {
		return err
	}
	c.ins.CacheMisses.Inc()
	c.ins.DecodeBytes.Add(uint64(len(missing)) * uint64(size))

	// Each missing data shard is its decode row times the received
	// vector, which overwrites it, so recycled output buffers need no
	// zero-fill. Over GF(2^8) the l rows, packed to l x k in place, are one
	// row product over the chosen shards.
	l, w := len(missing), len(missing)+c.k
	if c.wide {
		for j, i := range missing {
			out := sizeFor(shards[i], size)
			row := sc.rows16[j*w+l : (j+1)*w]
			gf16.MulSlice(row[0], shards[chosen[0]], out)
			for r := 1; r < c.k; r++ {
				gf16.MulAddSlice(row[r], shards[chosen[r]], out)
			}
			shards[i] = out
		}
		return nil
	}
	for j := range missing {
		copy(sc.rows[j*c.k:(j+1)*c.k], sc.rows[j*w+l:(j+1)*w])
	}
	sc.dec.Set(sc.rows[:l*c.k], c.k)
	in, out := sc.io[:0:c.k], sc.io[c.k:c.k]
	for _, i := range chosen {
		in = append(in, shards[i])
	}
	for _, i := range missing {
		shards[i] = sizeFor(shards[i], size)
		out = append(out, shards[i])
	}
	sc.dec.MulRows(0, in, out)
	clear(sc.io) // the free-list keeps no shard alive
	return nil
}
