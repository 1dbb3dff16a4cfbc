package core

import (
	"fmt"
	"math/bits"

	"rmfec/internal/metrics"
	"rmfec/internal/packet"
	"rmfec/internal/rect"
	"rmfec/internal/rse"
	"rmfec/internal/rse16"
)

// Codec is the repair-code abstraction the protocol engines encode and
// decode transmission groups through. Three backends register behind it:
// Reed-Solomon over GF(2^8) (interactive group sizes, K <= 254),
// Reed-Solomon over GF(2^16) (the very large groups Section 4.2
// recommends against burst loss), and the XOR-only interleaved
// rectangular code of internal/rect for low-loss paths. The wire
// identity (ID) lets the adaptive control plane negotiate codecs per
// transmission group through the TG header's codec id/arg byte, gated by
// measured encode cost (see gateAdmit).
type Codec interface {
	// EncodeParity returns parity shard j computed from the k data shards.
	EncodeParity(j int, data [][]byte) ([]byte, error)
	// EncodeBlocksShard batch-encodes nb consecutive FEC blocks — data
	// holds nb*k data shards, parity nb*h slices which are resized and
	// overwritten — but only the parity rows r = b*h + j with
	// r % nshards == shard, leaving the rest of parity untouched. Running
	// every shard, in any order or concurrently over one shared parity
	// slice, encodes every row exactly as shard 0 of 1 does; this is the
	// decomposition the sharded encode-ahead path parallelises over.
	EncodeBlocksShard(data, parity [][]byte, shard, nshards int) error
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

type gf8Codec struct{ c *rse.Code }

func (g gf8Codec) EncodeParity(j int, data [][]byte) ([]byte, error) {
	return g.c.EncodeParity(j, data, nil)
}
func (g gf8Codec) EncodeBlocksShard(data, parity [][]byte, shard, nshards int) error {
	return g.c.EncodeBlocksShard(data, parity, shard, nshards)
}
func (g gf8Codec) Reconstruct(shards [][]byte) error { return g.c.Reconstruct(shards) }
func (g gf8Codec) ShortfallBits(have uint64) int     { return mdsShortfall(g.c.K(), g.c.N(), have) }
func (g gf8Codec) ID() (uint8, uint8)                { return packet.CodecRS, 0 }

type gf16Codec struct{ c *rse16.Code }

func (g gf16Codec) EncodeParity(j int, data [][]byte) ([]byte, error) {
	return g.c.EncodeParity(j, data)
}
func (g gf16Codec) EncodeBlocksShard(data, parity [][]byte, shard, nshards int) error {
	return g.c.EncodeBlocksShard(data, parity, shard, nshards)
}
func (g gf16Codec) Reconstruct(shards [][]byte) error { return g.c.Reconstruct(shards) }
func (g gf16Codec) ShortfallBits(have uint64) int     { return mdsShortfall(g.c.K(), g.c.N(), have) }
func (g gf16Codec) ID() (uint8, uint8)                { return packet.CodecRS, 0 }

type rectCodec struct{ c *rect.Code }

func (g rectCodec) EncodeParity(j int, data [][]byte) ([]byte, error) {
	return g.c.EncodeParity(j, data, nil)
}
func (g rectCodec) EncodeBlocksShard(data, parity [][]byte, shard, nshards int) error {
	return g.c.EncodeBlocksShard(data, parity, shard, nshards)
}
func (g rectCodec) Reconstruct(shards [][]byte) error { return g.c.Reconstruct(shards) }
func (g rectCodec) ShortfallBits(have uint64) int     { return g.c.ShortfallBits(have) }
func (g rectCodec) ID() (uint8, uint8)                { return packet.CodecRect, uint8(g.c.D()) }

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
// GF(2^8) whenever the block fits in 255 packets, GF(2^16) beyond that.
// With a metrics registry, the GF(2^8) codec's rse_* instruments (symbol
// throughput, subsystem solves) are registered on it; registration is
// idempotent per registry, so every GF(2^8) instance of a session shares
// the counters.
func newCodecKH(k, h, shardSize int, reg *metrics.Registry) (Codec, error) {
	if k+h <= 255 {
		c, err := rse.New(k, h)
		if err != nil {
			return nil, err
		}
		c.Instrument(rse.RegisterInstruments(reg))
		return gf8Codec{c}, nil
	}
	if shardSize%2 != 0 {
		return nil, fmt.Errorf("core: K+MaxParity = %d needs the GF(2^16) codec, which requires an even ShardSize (got %d)",
			k+h, shardSize)
	}
	c, err := rse16.New(k, h)
	if err != nil {
		return nil, err
	}
	return gf16Codec{c}, nil
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
	//rmlint:ignore hotpath-alloc codec construction is memoized per ladder rung; steady state hits the map
	c, err := newCodecID(id, arg, k, h, cc.shardSize, cc.reg)
	if err != nil {
		return nil, err
	}
	cc.m[key] = c
	return c, nil
}
