// Package layered implements the paper's layered-FEC architecture
// (Fig. 2a): a transparent Forward-Error-Correction layer inserted between
// the network and an UNMODIFIED reliable-multicast ARQ protocol.
//
// On the sending side the shim groups outgoing data-plane packets into
// transmission groups of k, appends h Reed-Solomon parities, and forwards
// everything. On the receiving side it delivers original packets upward
// immediately, keeps copies for decoding, and when any k of a group's n
// packets have arrived it reconstructs and delivers the missing originals —
// so the ARQ layer above simply observes a network with the reduced
// residual loss probability q(k,n,p) of Eq. (2). Control traffic
// (MulticastControl) bypasses the FEC layer entirely.
//
// The shim implements the same Env contract the protocol engines in
// internal/core consume, so layered FEC is literally core's N2 stacked on
// this package — the composition the paper evaluates in Section 3.1.
package layered

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/packet"
	"rmfec/internal/rse"
)

// Config parameterises the FEC layer.
type Config struct {
	Session   uint32 // FEC-layer session id (independent of the RM layer's)
	K         int    // group size
	H         int    // parities per group
	ShardSize int    // max upper-layer packet size this layer can carry
	// FlushTimeout emits the parities of a partially filled group after
	// this idle time, padding with virtual zero shards. Default 50 ms.
	FlushTimeout time.Duration
	// MaxGroups bounds receiver-side group memory (default 256); older
	// groups are evicted, their recovery left to the ARQ layer above.
	MaxGroups int
}

// Defaults fills unset optional fields.
func (c *Config) Defaults() {
	if c.FlushTimeout == 0 {
		c.FlushTimeout = 50 * time.Millisecond
	}
	if c.MaxGroups == 0 {
		c.MaxGroups = 256
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.K < 1 || c.H < 0 || c.K+c.H > rse.MaxNarrowBlock {
		return fmt.Errorf("layered: bad code (k=%d, h=%d)", c.K, c.H)
	}
	if c.ShardSize < 1 || c.ShardSize > 65000-2 {
		return fmt.Errorf("layered: ShardSize = %d", c.ShardSize)
	}
	if c.FlushTimeout <= 0 || c.MaxGroups < 1 {
		return fmt.Errorf("layered: bad timing/memory config %+v", *c)
	}
	return nil
}

// Stats counts the shim's activity.
type Stats struct {
	WrappedTx   int // upper data packets wrapped and sent
	ParityTx    int // parity packets emitted
	Flushes     int // partial groups flushed by timeout
	DeliveredRx int // original packets passed upward (direct)
	RecoveredRx int // original packets reconstructed from parities
	Undecodable int // groups evicted before becoming decodable
}

// Shim is one endpoint's FEC layer. It is driven by the same serial event
// discipline as the core engines.
type Shim struct {
	lower core.Env
	cfg   Config
	code  *rse.Code
	upper func(b []byte)

	// sender state
	outGroup    uint32
	outShards   [][]byte
	outFill     int
	flushCancel func()

	// receiver state
	groups map[uint32]*rxGroup
	order  []uint32 // insertion order for eviction

	stats Stats
}

type rxGroup struct {
	shards [][]byte
	have   int
	fill   int // real packets in the group (rest are virtual zeros)
	done   bool
}

// New creates a shim over the lower environment.
func New(lower core.Env, cfg Config) (*Shim, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	code, err := rse.New(cfg.K, cfg.H)
	if err != nil {
		return nil, err
	}
	return &Shim{
		lower:  lower,
		cfg:    cfg,
		code:   code,
		groups: make(map[uint32]*rxGroup),
	}, nil
}

// Stats returns a snapshot of the shim's counters.
func (s *Shim) Stats() Stats { return s.stats }

// SetUpper installs the upward delivery callback (the RM layer's
// HandlePacket).
func (s *Shim) SetUpper(fn func(b []byte)) { s.upper = fn }

// Now implements core.Env.
func (s *Shim) Now() time.Duration { return s.lower.Now() }

// After implements core.Env.
func (s *Shim) After(d time.Duration, fn func()) func() { return s.lower.After(d, fn) }

// Rand implements core.Env.
func (s *Shim) Rand() *rand.Rand { return s.lower.Rand() }

// MulticastControl passes control traffic through unprotected.
func (s *Shim) MulticastControl(b []byte) error { return s.lower.MulticastControl(b) }

// Multicast wraps an upper-layer data packet into the current FEC group
// and sends it. When the group fills, parities follow immediately.
func (s *Shim) Multicast(b []byte) error {
	if len(b) > s.cfg.ShardSize {
		return fmt.Errorf("layered: packet of %d bytes exceeds ShardSize %d", len(b), s.cfg.ShardSize)
	}
	if s.outShards == nil {
		s.outShards = make([][]byte, 0, s.cfg.K)
	}
	shard := make([]byte, s.cfg.ShardSize+2)
	binary.BigEndian.PutUint16(shard, uint16(len(b)))
	copy(shard[2:], b)
	idx := len(s.outShards)
	s.outShards = append(s.outShards, shard)
	s.outFill = len(s.outShards)

	wp := packet.Packet{
		Type:    packet.TypeData,
		Session: s.cfg.Session,
		Group:   s.outGroup,
		Seq:     uint16(idx),
		K:       uint16(s.cfg.K),
		// Count stays 0: only parity packets, emitted when the group is
		// closed, carry the authoritative fill.
		Payload: shard,
	}
	wire, err := wp.Encode()
	if err != nil {
		return err
	}
	if err := s.lower.Multicast(wire); err != nil {
		return err
	}
	s.stats.WrappedTx++

	if len(s.outShards) == s.cfg.K {
		return s.emitParities()
	}
	s.armFlush()
	return nil
}

func (s *Shim) armFlush() {
	if s.flushCancel != nil {
		s.flushCancel()
	}
	s.flushCancel = s.lower.After(s.cfg.FlushTimeout, func() {
		s.flushCancel = nil
		if len(s.outShards) > 0 {
			s.stats.Flushes++
			s.emitParities() //nolint:errcheck // best-effort datagrams
		}
	})
}

// emitParities pads the group to k with zero shards, sends the h parities
// and opens the next group.
func (s *Shim) emitParities() error {
	if s.flushCancel != nil {
		s.flushCancel()
		s.flushCancel = nil
	}
	fill := len(s.outShards)
	data := s.outShards
	for len(data) < s.cfg.K {
		data = append(data, make([]byte, s.cfg.ShardSize+2))
	}
	var firstErr error
	for j := 0; j < s.cfg.H; j++ {
		shard, err := s.code.EncodeParity(j, data, nil)
		if err != nil {
			return err
		}
		wp := packet.Packet{
			Type:    packet.TypeParity,
			Session: s.cfg.Session,
			Group:   s.outGroup,
			Seq:     uint16(s.cfg.K + j),
			K:       uint16(s.cfg.K),
			Count:   uint16(fill),
			Payload: shard,
		}
		wire, err := wp.Encode()
		if err != nil {
			return err
		}
		if err := s.lower.Multicast(wire); err != nil && firstErr == nil {
			firstErr = err
		}
		s.stats.ParityTx++
	}
	s.outGroup++
	s.outShards = nil
	s.outFill = 0
	return firstErr
}

// HandlePacket feeds a packet arriving from the network into the receive
// path. FEC-layer packets are consumed; anything else (the RM layer's
// control traffic) is passed upward untouched.
func (s *Shim) HandlePacket(wire []byte) {
	pkt, err := packet.Decode(wire)
	if err != nil {
		return
	}
	if pkt.Session != s.cfg.Session ||
		(pkt.Type != packet.TypeData && pkt.Type != packet.TypeParity) {
		s.deliver(wire)
		return
	}
	if int(pkt.K) != s.cfg.K || len(pkt.Payload) != s.cfg.ShardSize+2 {
		return
	}
	g := s.group(pkt.Group)
	if g == nil || g.done {
		if pkt.Type == packet.TypeData {
			s.unwrapUp(pkt.Payload, true) // still useful for the ARQ layer
		}
		return
	}
	idx := int(pkt.Seq)
	if idx >= len(g.shards) || g.shards[idx] != nil {
		if pkt.Type == packet.TypeData {
			s.unwrapUp(pkt.Payload, true)
		}
		return
	}
	if pkt.Type == packet.TypeParity {
		// A parity packet means the sender closed the group; its Count is
		// the authoritative number of real packets. The remaining data
		// slots are virtual zero shards and count as received.
		if fill := int(pkt.Count); fill > g.fill {
			g.fill = fill
		}
	}
	g.shards[idx] = pkt.Payload
	g.have++
	if pkt.Type == packet.TypeData {
		s.unwrapUp(pkt.Payload, true)
	}
	s.tryDecode(g)
}

// effectiveHave counts received shards plus the virtual zero padding that
// parity packets revealed.
func (s *Shim) effectiveHave(g *rxGroup) int {
	if g.fill == 0 {
		return g.have // group size unknown yet; no padding credit
	}
	virtual := s.cfg.K - g.fill
	return g.have + virtual
}

func (s *Shim) tryDecode(g *rxGroup) {
	if g.done || s.effectiveHave(g) < s.cfg.K {
		return
	}
	// Materialise the virtual zero shards.
	if g.fill > 0 {
		for i := g.fill; i < s.cfg.K; i++ {
			if g.shards[i] == nil {
				g.shards[i] = make([]byte, s.cfg.ShardSize+2)
			}
		}
	}
	missing := make([]bool, s.cfg.K)
	for i := 0; i < s.cfg.K; i++ {
		missing[i] = g.shards[i] == nil
	}
	if err := s.code.Reconstruct(g.shards); err != nil {
		return
	}
	g.done = true
	limit := s.cfg.K
	if g.fill > 0 {
		limit = g.fill
	}
	for i := 0; i < limit; i++ {
		if missing[i] {
			s.stats.RecoveredRx++
			s.unwrapUp(g.shards[i], false)
		}
	}
}

func (s *Shim) unwrapUp(shard []byte, direct bool) {
	n := int(binary.BigEndian.Uint16(shard))
	if n > len(shard)-2 {
		return // corrupt length prefix
	}
	if direct {
		s.stats.DeliveredRx++
	}
	s.deliver(shard[2 : 2+n])
}

func (s *Shim) deliver(b []byte) {
	if s.upper != nil {
		s.upper(b)
	}
}

// group returns (creating if needed) receive state for group idx, evicting
// the oldest group beyond the memory bound. Returns nil if idx was already
// evicted (ancient groups are not re-tracked).
func (s *Shim) group(idx uint32) *rxGroup {
	if g, ok := s.groups[idx]; ok {
		return g
	}
	if len(s.order) > 0 && idx < s.order[0] {
		return nil
	}
	g := &rxGroup{shards: make([][]byte, s.cfg.K+s.cfg.H)}
	s.groups[idx] = g
	s.order = append(s.order, idx)
	for len(s.order) > s.cfg.MaxGroups {
		old := s.order[0]
		s.order = s.order[1:]
		if og, ok := s.groups[old]; ok && !og.done {
			s.stats.Undecodable++
		}
		delete(s.groups, old)
	}
	return g
}
