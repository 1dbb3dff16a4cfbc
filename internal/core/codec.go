package core

import (
	"fmt"
	"math/bits"

	"rmfec/internal/metrics"
	"rmfec/internal/packet"
	"rmfec/internal/rect"
	"rmfec/internal/rse"
)

// Codec is the repair-code abstraction the protocol engines encode and
// decode transmission groups through. Two backends register behind it:
// Reed-Solomon (internal/rse: over GF(2^8) for interactive group sizes,
// over GF(2^16) for the very large groups Section 4.2 recommends against
// burst loss), and the XOR-only interleaved rectangular code of
// internal/rect for low-loss paths. The wire identity (ID) lets the
// adaptive control plane negotiate codecs per transmission group through
// the TG header's codec id/arg byte, gated by measured encode cost (see
// gateAdmit).
type Codec interface {
	// EncodeParity returns parity shard j computed from the k data shards.
	EncodeParity(j int, data [][]byte) ([]byte, error)
	// Encode computes all h parity shards of one block from its k data
	// shards into parity (length h), resizing and overwriting its entries.
	// Row j is byte for byte what EncodeParity(j) returns.
	Encode(data, parity [][]byte) error
	// Reconstruct rebuilds missing data shards in place; shards has
	// length k+h with nil or zero-length slices marking losses, and a
	// zero-length one with capacity for a shard is rebuilt into its own
	// backing array (the receiver's message-buffer slots).
	Reconstruct(shards [][]byte) error
	// ShortfallBits returns the number of repair packets still needed to
	// complete a group given the present-shard bitmap have (bit i set
	// when shard i of the k+h is held). Only meaningful when k+h <= 64;
	// for MDS codes it is max(0, k - popcount(have)), for rectangular
	// codes the per-class deficit. This is the codec-aware deficit rule
	// receivers and the field report through NAK Count.
	ShortfallBits(have uint64) int
	// ID returns the codec's wire identity: the (codec, codec arg) byte
	// pair carried by every TG header (see packet.CodecRS and friends).
	ID() (id, arg uint8)
}

type rsCodec struct{ c *rse.Code }

func (g rsCodec) EncodeParity(j int, data [][]byte) ([]byte, error) {
	return g.c.EncodeParity(j, data, nil)
}
func (g rsCodec) Encode(data, parity [][]byte) error { return g.c.Encode(data, parity) }
func (g rsCodec) Reconstruct(shards [][]byte) error  { return g.c.Reconstruct(shards) }
func (g rsCodec) ShortfallBits(have uint64) int      { return mdsShortfall(g.c.K(), g.c.N(), have) }
func (g rsCodec) ID() (uint8, uint8)                 { return packet.CodecRS, 0 }

type rectCodec struct{ c *rect.Code }

func (g rectCodec) EncodeParity(j int, data [][]byte) ([]byte, error) {
	return g.c.EncodeParity(j, data, nil)
}
func (g rectCodec) Encode(data, parity [][]byte) error { return g.c.EncodeBlocks(data, parity) }
func (g rectCodec) Reconstruct(shards [][]byte) error  { return g.c.Reconstruct(shards) }
func (g rectCodec) ShortfallBits(have uint64) int      { return g.c.ShortfallBits(have) }
func (g rectCodec) ID() (uint8, uint8)                 { return packet.CodecRect, uint8(g.c.D()) }

// mdsShortfall is the MDS deficit rule: any k of the n shards complete
// the group, so the shortfall is k minus the shards held.
func mdsShortfall(k, n int, have uint64) int {
	held := bits.OnesCount64(have & (1<<uint(n) - 1))
	if held >= k {
		return 0
	}
	return k - held
}

// newCodecKH builds a Reed-Solomon codec for a (k, h) working point:
// over GF(2^8) whenever the block fits in rse.MaxNarrowBlock packets,
// over GF(2^16) beyond that. With a metrics registry, the codec's rse_*
// instruments (symbol throughput, subsystem solves) are registered on it;
// registration is idempotent per registry, so every instance of a session
// shares the counters.
func newCodecKH(k, h, shardSize int, reg *metrics.Registry) (Codec, error) {
	build := rse.New
	if k+h > rse.MaxNarrowBlock {
		if shardSize%2 != 0 {
			return nil, fmt.Errorf("core: K+MaxParity = %d needs the GF(2^16) codec, which requires an even ShardSize (got %d)",
				k+h, shardSize)
		}
		build = rse.NewWide
	}
	c, err := build(k, h)
	if err != nil {
		return nil, err
	}
	c.Instrument(rse.RegisterInstruments(reg))
	return rsCodec{c}, nil
}

// newCodecID builds the codec named by a wire (codec id, codec arg)
// pair at working point (k, h). Id 0 is Reed-Solomon with arg 0 and the
// field chosen by k+h; id 1 is the interleaved XOR rectangular code,
// whose arg carries the class count d and must equal h.
func newCodecID(id, arg uint8, k, h, shardSize int, reg *metrics.Registry) (Codec, error) {
	switch id {
	case packet.CodecRS:
		if arg != 0 {
			return nil, fmt.Errorf("core: RS codec arg must be 0, got %d", arg)
		}
		return newCodecKH(k, h, shardSize, reg)
	case packet.CodecRect:
		if int(arg) != h {
			return nil, fmt.Errorf("core: rect codec arg %d must equal h %d", arg, h)
		}
		c, err := rect.New(k, h)
		if err != nil {
			return nil, err
		}
		return rectCodec{c}, nil
	default:
		return nil, fmt.Errorf("core: unknown codec id %d", id)
	}
}

// codecCache lazily builds and memoizes a session's per-(k, h, codec)
// codecs. A static session holds one entry; under adaptive FEC the working
// point — and since the codec portfolio, the code itself — changes between
// transmission groups. Ladder rungs are few, so the cache stays tiny;
// lookups happen on the engine goroutine only.
type codecCache struct {
	m         map[uint64]Codec
	shardSize int
	reg       *metrics.Registry
}

func newCodecCache(shardSize int, reg *metrics.Registry) codecCache {
	return codecCache{m: make(map[uint64]Codec), shardSize: shardSize, reg: reg}
}

func (cc *codecCache) get(k, h int, id, arg uint8) (Codec, error) {
	key := uint64(k)<<32 | uint64(h)<<16 | uint64(id)<<8 | uint64(arg)
	if c, ok := cc.m[key]; ok {
		return c, nil
	}
	// codec construction is memoized per ladder rung; steady state hits the map
	c, err := newCodecID(id, arg, k, h, cc.shardSize, cc.reg)
	if err != nil {
		return nil, err
	}
	cc.m[key] = c
	return c, nil
}
