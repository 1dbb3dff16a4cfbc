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
// parities standing in for them — O(l^3 + l^2 k) byte operations, against
// the l*k*len(packet) of the data pass — and no decode matrix is cached.
// The one structure on the hot path is a scratch free-list holding the
// index slices and that small system, so Reconstruct performs no heap
// allocations on any loss pattern when the caller also recycles the output
// shards (pass a missing shard as a zero-length slice with spare capacity
// instead of nil).
package rse

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"rmfec/internal/gf256"
	"rmfec/internal/metrics"
)

// MaxBlock is the largest supported FEC block size n = k+h, bounded by the
// number of distinct evaluation points in GF(2^8).
const MaxBlock = 256

// pairCoeffBudget caps the number of distinct non-trivial coefficients the
// generator may use before the encoder abandons gf256's pair-table word
// kernels for the compact shared-table loop. Each pair table is 128 KiB;
// measured on the reference host the word kernel beats the scalar loop
// while the live tables fit in cache (~1.2x at 8 coefficients) but
// collapses to ~0.25x once the rotation exceeds the cache (~64+
// coefficients). 32 tables = 4 MiB keeps the paper's operating points
// (k=7 uses <= 27 distinct coefficients, k=20 with h <= 4 uses 19) on the
// fast path and sends wide codes (k=100 uses 139+) down the compact one.
const pairCoeffBudget = 32

// wideKernelOK reports whether the pair-table word kernels pay off for a
// matrix: true when the count of distinct coefficients outside {0, 1}
// (the only values that consult a pair table) is within pairCoeffBudget.
func wideKernelOK(m *gf256.Matrix) bool {
	var seen [256]bool
	distinct := 0
	for _, co := range m.Data {
		if co > 1 && !seen[co] {
			seen[co] = true
			distinct++
			if distinct > pairCoeffBudget {
				return false
			}
		}
	}
	return true
}

// Errors returned by the codec.
var (
	ErrTooFewShards   = errors.New("rse: fewer than k shards present")
	ErrShardSize      = errors.New("rse: shards have inconsistent sizes")
	ErrBadShardCount  = errors.New("rse: wrong number of shards")
	ErrBadParityIndex = errors.New("rse: parity index out of range")
)

// Code is a systematic (n, k) Reed-Solomon erasure code. The generator is
// immutable after construction; the decode scratch free-list is guarded by
// an internal mutex, so a Code is safe for concurrent use.
type Code struct {
	k, h   int
	parity *gf256.Matrix // h x k parity generator rows of G = [I; P]
	// wideEncode selects the pair-table word kernels for encoding; set at
	// construction iff the generator's coefficient diversity is within
	// pairCoeffBudget. Decode rows carry ~k distinct coefficients per
	// erasure pattern, the case the budget exists to keep off the pair
	// tables, so Reconstruct always runs the compact forms.
	wideEncode bool

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
			"parity bytes produced by the GF(2^8) encoder"),
		DecodeBytes: r.Counter("rse_decode_bytes_total",
			"data bytes reconstructed by the GF(2^8) decoder"),
		CacheHits:   cache("hit"),
		CacheMisses: cache("miss"),
	}
}

// decodeScratch is one Reconstruct call's working set, sized at
// allocation for the worst pattern the code can decode (l = min(k, h) data
// shards missing) so no call grows it.
type decodeScratch struct {
	missing, chosen []int
	rows            []byte // l x (l+k): see decodeRows
}

// New returns a code with k data shards and h parity shards per block.
// Constraints: k >= 1, h >= 0, k+h <= MaxBlock.
func New(k, h int) (*Code, error) {
	if k < 1 {
		return nil, fmt.Errorf("rse: k = %d, need k >= 1", k)
	}
	if h < 0 {
		return nil, fmt.Errorf("rse: h = %d, need h >= 0", h)
	}
	n := k + h
	if n > MaxBlock {
		return nil, fmt.Errorf("rse: block size k+h = %d exceeds %d", n, MaxBlock)
	}
	if h == 0 {
		// Degenerate code with no parities; Encode is a no-op and
		// Reconstruct can only verify completeness, so skip the O(k^3)
		// Vandermonde construction and inversion entirely.
		return &Code{k: k, h: 0}, nil
	}
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
	parity := g.SubMatrix(bottom)
	return &Code{k: k, h: h, parity: parity, wideEncode: wideKernelOK(parity)}, nil
}

// MustNew is New, panicking on error; for statically valid parameters.
func MustNew(k, h int) *Code {
	c, err := New(k, h)
	if err != nil {
		panic(err)
	}
	return c
}

// K returns the number of data shards per block.
func (c *Code) K() int { return c.k }

// H returns the number of parity shards per block.
func (c *Code) H() int { return c.h }

// N returns the block size k+h.
func (c *Code) N() int { return c.k + c.h }

func checkSizes(shards [][]byte) (size int, err error) {
	size = -1
	for _, s := range shards {
		if s == nil {
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
	return size, nil
}

// checkSizesSparse is checkSizes under Reconstruct's missing-shard
// contract: a shard is missing if it is nil OR zero-length (the latter
// lets callers hand in recycled buffers with spare capacity).
func checkSizesSparse(shards [][]byte) (size int, err error) {
	size = -1
	for _, s := range shards {
		if len(s) == 0 {
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
	return size, nil
}

// validateEncode checks the data-shard slice for Encode/EncodeParity/
// Verify once, so the per-parity loops can run unchecked.
func (c *Code) validateEncode(data [][]byte) (size int, err error) {
	if len(data) != c.k {
		return 0, fmt.Errorf("%w: %d data shards, want %d", ErrBadShardCount, len(data), c.k)
	}
	for _, d := range data {
		if d == nil {
			return 0, fmt.Errorf("%w: nil data shard", ErrBadShardCount)
		}
	}
	return checkSizes(data)
}

// encodeRow writes parity row j over the validated data shards into dst,
// which must already have the shard length. The first generator column is
// applied with MulSlice — overwriting dst — so no zero-fill pass is
// needed before the multiply-accumulate sweep.
func (c *Code) encodeRow(j int, data [][]byte, dst []byte) {
	row := c.parity.Row(j)
	if c.wideEncode {
		gf256.MulSlice(row[0], data[0], dst)
		for i := 1; i < c.k; i++ {
			gf256.MulAddSlice(row[i], data[i], dst)
		}
		return
	}
	gf256.MulSliceCompact(row[0], data[0], dst)
	for i := 1; i < c.k; i++ {
		gf256.MulAddSliceCompact(row[i], data[i], dst)
	}
}

// sizeFor resizes dst to size, reusing its capacity when possible. The
// contents are left arbitrary; callers overwrite via encodeRow/MulSlice.
func sizeFor(dst []byte, size int) []byte {
	if cap(dst) < size {
		//rmlint:ignore hotpath-alloc grows dst only when capacity is short; steady state reuses
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
	size, err := c.validateEncode(data)
	if err != nil {
		return err
	}
	for j := 0; j < c.h; j++ {
		parity[j] = sizeFor(parity[j], size)
		c.encodeRow(j, data, parity[j])
	}
	c.ins.EncodeBytes.Add(uint64(c.h) * uint64(size))
	return nil
}

// EncodeBlocks encodes nb consecutive FEC blocks in one call: data holds
// nb*k data shards (block b's shards at [b*k, (b+1)*k)) and parity holds
// nb*h parity slices, resized and overwritten like Encode, which it runs
// on each block in turn.
//
//rmlint:hotpath
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

// EncodeParity computes only parity shard j (0-based) into dst, which is
// grown if needed and returned. This supports the paper's integrated
// protocol NP, where parities are produced on demand one retransmission
// round at a time rather than all up front.
//
//rmlint:hotpath
func (c *Code) EncodeParity(j int, data [][]byte, dst []byte) ([]byte, error) {
	if j < 0 || j >= c.h {
		return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrBadParityIndex, j, c.h)
	}
	size, err := c.validateEncode(data)
	if err != nil {
		return nil, err
	}
	dst = sizeFor(dst, size)
	c.encodeRow(j, data, dst)
	c.ins.EncodeBytes.Add(uint64(size))
	return dst, nil
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
		l := min(c.k, c.h)
		//rmlint:ignore hotpath-alloc scratch allocated on pool miss; recycled by putScratch
		sc = &decodeScratch{
			missing: make([]int, 0, c.k),
			chosen:  make([]int, 0, c.k),
			rows:    make([]byte, l*(l+c.k)),
		}
	}
	return sc
}

func (c *Code) putScratch(sc *decodeScratch) {
	c.mu.Lock()
	//rmlint:ignore hotpath-alloc scratch pool growth is amortized across the session
	c.scratch = append(c.scratch, sc)
	c.mu.Unlock()
}

// decodeRows returns the l = len(missing) decode rows of an erasure
// pattern as an l x (l+k) matrix: past its first l columns (the identity),
// row j holds the k coefficients that rebuild data shard missing[j] from
// the shards in chosen (the k-l present data shards, then l present
// parities). Because G = [I; P] is systematic, the present data shards are
// already solved and only the missing ones are unknowns: writing M for
// missing, D for the present data and Q for the chosen parities,
// y_Q = P[Q][M] x_M + P[Q][D] x_D, so with A = P[Q][M]
//
//	x_M = (A^-1 P[Q][D]) x_D + A^-1 y_Q
//
// (addition and subtraction coincide), and one elimination of the l rows
// [A | P[Q][D] | I] to [I | A^-1 P[Q][D] | A^-1] produces both factors:
// O(l^2 (l+k)) byte operations. The rows are exactly rows M of the inverse
// of the k chosen generator rows — that inverse is unique — without the
// O(k^3) elimination over rows that were unit vectors to begin with.
func (c *Code) decodeRows(sc *decodeScratch, missing, chosen []int) ([]byte, error) {
	l, k := len(missing), c.k
	w := l + k
	rows := sc.rows[:l*w]
	for q, idx := range chosen[k-l:] {
		prow, row := c.parity.Row(idx-k), rows[q*w:(q+1)*w]
		for j, m := range missing {
			row[j] = prow[m]
		}
		for r, d := range chosen[:k-l] {
			row[l+r] = prow[d]
		}
		clear(row[k:])
		row[k+q] = 1
	}
	if err := gf256.SolveSmall(rows, l, w); err != nil {
		// Cannot happen for this generator matrix: any k rows are linearly
		// independent by construction, and A is singular only if the chosen
		// rows are dependent.
		return nil, fmt.Errorf("rse: internal decode failure: %w", err)
	}
	return rows, nil
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
//
//rmlint:hotpath
func (c *Code) Reconstruct(shards [][]byte) error {
	n := c.N()
	if len(shards) != n {
		return fmt.Errorf("%w: %d shards, want %d", ErrBadShardCount, len(shards), n)
	}
	size, err := checkSizesSparse(shards)
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
			//rmlint:ignore hotpath-alloc scratch slices carry capacity k; append cannot grow after first use
			missing = append(missing, i)
		} else {
			//rmlint:ignore hotpath-alloc scratch slices carry capacity k; append cannot grow after first use
			chosen = append(chosen, i)
		}
	}
	if len(missing) == 0 {
		return nil // systematic fast path: nothing to decode
	}
	for i := c.k; i < n && len(chosen) < c.k; i++ {
		if len(shards[i]) != 0 {
			//rmlint:ignore hotpath-alloc scratch slices carry capacity k; append cannot grow after first use
			chosen = append(chosen, i)
		}
	}
	if len(chosen) < c.k {
		return fmt.Errorf("%w: %d of %d present", ErrTooFewShards, len(chosen), c.k)
	}
	rows, err := c.decodeRows(sc, missing, chosen)
	if err != nil {
		return err
	}
	c.ins.CacheMisses.Inc()

	// Each missing data shard is its decode row times the received
	// vector; the first column overwrites via MulSlice so recycled
	// output buffers need no zero-fill.
	l := len(missing)
	for j, i := range missing {
		out := sizeFor(shards[i], size)
		row := rows[j*(l+c.k)+l : (j+1)*(l+c.k)]
		gf256.MulSliceCompact(row[0], shards[chosen[0]], out)
		for r := 1; r < len(chosen); r++ {
			gf256.MulAddSliceCompact(row[r], shards[chosen[r]], out)
		}
		shards[i] = out
	}
	c.ins.DecodeBytes.Add(uint64(l) * uint64(size))
	return nil
}

// ReconstructAll rebuilds missing data shards and then re-encodes any
// missing parity shards, leaving a fully populated block.
func (c *Code) ReconstructAll(shards [][]byte) error {
	if err := c.Reconstruct(shards); err != nil {
		return err
	}
	needParity := false
	for j := 0; j < c.h; j++ {
		if len(shards[c.k+j]) == 0 {
			needParity = true
			break
		}
	}
	if !needParity {
		return nil
	}
	data := shards[:c.k]
	for j := 0; j < c.h; j++ {
		if len(shards[c.k+j]) != 0 {
			continue
		}
		p, err := c.EncodeParity(j, data, shards[c.k+j])
		if err != nil {
			return err
		}
		shards[c.k+j] = p
	}
	return nil
}

// Verify reports whether the parity shards are consistent with the data
// shards. All n shards must be present. The shard validation runs once up
// front; the per-parity loop just re-encodes into one reused buffer and
// compares.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	n := c.N()
	if len(shards) != n {
		return false, fmt.Errorf("%w: %d shards, want %d", ErrBadShardCount, len(shards), n)
	}
	for _, s := range shards {
		if s == nil {
			return false, ErrTooFewShards
		}
	}
	size, err := c.validateEncode(shards[:c.k])
	if err != nil {
		return false, err
	}
	buf := make([]byte, size)
	for j := 0; j < c.h; j++ {
		if len(shards[c.k+j]) != size {
			return false, ErrShardSize
		}
		c.encodeRow(j, shards[:c.k], buf)
		if !bytes.Equal(buf, shards[c.k+j]) {
			return false, nil
		}
	}
	return true, nil
}
