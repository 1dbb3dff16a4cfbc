package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"rmfec/internal/packet"
)

// SenderN2 implements the ARQ-only baseline protocol N2 of Towsley, Kurose
// and Pingali: receiver-initiated feedback, NAKs multicast with slotting
// and damping, and retransmission of the ORIGINAL packets (no parities).
// Packets are addressed by a global sequence number carried in the Group
// header field.
type SenderN2 struct {
	env Env
	cfg Config

	shards  [][]byte
	msgLen  uint64
	sendQ   []outPkt
	queued  map[uint32]bool // retransmissions queued but unsent
	pumping bool
	finLeft int
	finDue  bool // a FIN repeat's timer is pending
	closed  bool
	started bool

	pumpCb, finCb func() // hoisted pacing and FIN-repeat callbacks

	stats SenderStats
}

// NewSenderN2 creates an N2 sender. K is irrelevant for N2 but kept >= 1
// for config validation; ShardSize is the packet payload size.
func NewSenderN2(env Env, cfg Config) (*SenderN2, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &SenderN2{env: env, cfg: cfg, queued: make(map[uint32]bool)}
	s.pumpCb = func() {
		s.pumping = false
		s.pump()
	}
	s.finCb = func() {
		s.finDue = false
		s.enqueueFin() // into a dead queue once closed: pump sends nothing
		s.pump()
	}
	return s, nil
}

// Stats returns a snapshot of the sender's counters. ParityTx is always 0:
// N2 retransmits originals, which are counted in DataTx.
func (s *SenderN2) Stats() SenderStats { return s.stats }

// Packets returns the number of packets in the current message.
func (s *SenderN2) Packets() int { return len(s.shards) }

// Close stops the sender.
func (s *SenderN2) Close() {
	s.closed = true
	s.sendQ = nil
}

// Send starts the transfer of msg.
func (s *SenderN2) Send(msg []byte) error {
	if s.closed {
		return ErrClosed
	}
	if s.started {
		return ErrBusy
	}
	s.started = true
	s.msgLen = uint64(len(msg))
	n := (len(msg) + s.cfg.ShardSize - 1) / s.cfg.ShardSize
	if n == 0 {
		n = 1
	}
	if n > s.cfg.MaxGroups {
		return fmt.Errorf("core: message needs %d packets, exceeding MaxGroups = %d", n, s.cfg.MaxGroups)
	}
	s.shards = make([][]byte, n)
	for i := range s.shards {
		shard := make([]byte, s.cfg.ShardSize)
		if off := i * s.cfg.ShardSize; off < len(msg) {
			copy(shard, msg[off:])
		}
		s.shards[i] = shard
		s.sendQ = append(s.sendQ, outPkt{wire: s.dataPacket(uint32(i))})
	}
	s.finLeft = s.cfg.FinCount
	s.enqueueFin()
	s.pump()
	return nil
}

// HandlePacket feeds an incoming packet (NAKs) to the sender.
func (s *SenderN2) HandlePacket(wire []byte) {
	if s.closed {
		return
	}
	pkt, err := packet.Decode(wire)
	if err != nil || pkt.Session != s.cfg.Session || pkt.Type != packet.TypeNak {
		return
	}
	s.stats.NakRx++
	seq := pkt.Group
	if int(seq) >= len(s.shards) || s.queued[seq] {
		return
	}
	s.queued[seq] = true
	s.stats.NakServed++
	// Retransmissions preempt the remaining first-pass data.
	s.sendQ = append([]outPkt{{wire: s.dataPacket(seq), service: true}}, s.sendQ...)
	s.pump()
}

func (s *SenderN2) dataPacket(seq uint32) []byte {
	p := packet.Packet{
		Type:    packet.TypeData,
		Session: s.cfg.Session,
		Group:   seq,
		K:       1,
		Total:   uint32(len(s.shards)),
		Payload: s.shards[seq],
	}
	return p.MustEncode()
}

func (s *SenderN2) enqueueFin() {
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], s.msgLen)
	p := packet.Packet{
		Type:    packet.TypeFin,
		Session: s.cfg.Session,
		K:       1,
		Total:   uint32(len(s.shards)),
		Payload: payload[:],
	}
	s.sendQ = append(s.sendQ, outPkt{wire: p.MustEncode(), control: true})
}

// pump sends one queued packet per Delta. Like Sender.pump it never
// sleeps between FIN repeats, so a retransmission goes out at once.
func (s *SenderN2) pump() {
	if s.pumping || s.closed {
		return
	}
	if len(s.sendQ) == 0 {
		if s.finLeft > 0 && !s.finDue {
			s.finLeft--
			s.finDue = true
			s.env.After(s.cfg.FinInterval, s.finCb)
		}
		return
	}
	out := s.sendQ[0]
	s.sendQ = s.sendQ[1:]
	if out.service {
		if pkt, err := packet.Decode(out.wire); err == nil {
			delete(s.queued, pkt.Group)
		}
	}
	// N2 sends data and the FIN, its only control frame.
	if out.control {
		s.stats.FinTx++
		s.env.MulticastControl(out.wire) //nolint:errcheck // best-effort
	} else {
		s.stats.DataTx++
		s.env.Multicast(out.wire) //nolint:errcheck // best-effort
	}
	s.pumping = true
	s.env.After(s.cfg.Delta, s.pumpCb)
}

// ReceiverN2 is the N2 receiver: it detects sequence gaps, multicasts
// per-packet NAKs with slotting/damping, and reassembles the message.
type ReceiverN2 struct {
	env Env
	cfg Config

	shards   map[uint32][]byte
	naks     map[uint32]*nakState
	total    int
	msgLen   uint64
	sawFin   bool
	maxSeen  int // highest sequence received, -1 initially
	complete bool
	closed   bool

	// OnComplete is invoked exactly once with the reassembled message.
	OnComplete func(msg []byte)

	stats ReceiverStats
}

type nakState struct {
	cancel func()
	armed  bool
	heard  bool
	retry  int
}

// NewReceiverN2 creates an N2 receiver.
func NewReceiverN2(env Env, cfg Config) (*ReceiverN2, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ReceiverN2{
		env:     env,
		cfg:     cfg,
		shards:  make(map[uint32][]byte),
		naks:    make(map[uint32]*nakState),
		total:   -1,
		maxSeen: -1,
	}, nil
}

// Stats returns a snapshot of the receiver's counters.
func (r *ReceiverN2) Stats() ReceiverStats { return r.stats }

// Complete reports whether the full message has been delivered.
func (r *ReceiverN2) Complete() bool { return r.complete }

// Close stops the receiver and cancels timers.
func (r *ReceiverN2) Close() {
	r.closed = true
	for _, n := range r.naks {
		if n.cancel != nil {
			n.cancel()
		}
	}
}

// HandlePacket feeds an incoming wire packet to the engine.
func (r *ReceiverN2) HandlePacket(wire []byte) {
	if r.closed || r.complete {
		return
	}
	pkt, err := packet.Decode(wire)
	if err != nil || pkt.Session != r.cfg.Session {
		return
	}
	switch pkt.Type {
	case packet.TypeData:
		r.onData(pkt)
	case packet.TypeNak:
		r.onNak(pkt)
	case packet.TypeFin:
		r.onFin(pkt)
	}
}

func (r *ReceiverN2) onData(pkt *packet.Packet) {
	r.noteTotal(pkt.Total)
	seq := pkt.Group
	if len(pkt.Payload) != r.cfg.ShardSize {
		return
	}
	if int64(seq) >= int64(r.cfg.MaxGroups) {
		return // beyond any transfer this receiver would accept
	}
	if r.total > 0 && int(seq) >= r.total {
		return
	}
	if _, dup := r.shards[seq]; dup {
		r.stats.DupRx++
		return
	}
	r.shards[seq] = pkt.Payload
	r.stats.DataRx++
	if n, ok := r.naks[seq]; ok {
		if n.cancel != nil {
			n.cancel()
		}
		delete(r.naks, seq)
	}
	// Gap detection: everything below the highest sequence seen and not
	// received is missing.
	if int(seq) > r.maxSeen {
		for m := r.maxSeen + 1; m < int(seq); m++ {
			if _, ok := r.shards[uint32(m)]; !ok {
				r.armNak(uint32(m))
			}
		}
		r.maxSeen = int(seq)
	}
	r.maybeComplete()
}

func (r *ReceiverN2) armNak(seq uint32) {
	if _, ok := r.naks[seq]; ok {
		return
	}
	n := &nakState{armed: true}
	r.naks[seq] = n
	delay := time.Duration(r.env.Rand().Int63n(int64(4 * r.cfg.Ts)))
	n.cancel = r.env.After(delay, func() { r.fireNak(seq, n) })
}

func (r *ReceiverN2) fireNak(seq uint32, n *nakState) {
	if r.closed || r.complete {
		return
	}
	if _, ok := r.shards[seq]; ok {
		return
	}
	if n.heard {
		// Damped: another receiver already asked; expect the repair and
		// only re-NAK if it does not show up.
		r.stats.NakSupp++
	} else {
		nak := packet.Packet{Type: packet.TypeNak, Session: r.cfg.Session, Group: seq, Count: 1}
		r.env.MulticastControl(nak.MustEncode()) //nolint:errcheck // best-effort
		r.stats.NakTx++
	}
	n.heard = false
	n.retry++
	backoff := r.cfg.RetryBase * time.Duration(min(n.retry, 8))
	n.cancel = r.env.After(backoff, func() { r.fireNak(seq, n) })
}

func (r *ReceiverN2) onNak(pkt *packet.Packet) {
	if n, ok := r.naks[pkt.Group]; ok {
		n.heard = true
	}
}

func (r *ReceiverN2) noteTotal(total uint32) {
	if total > 0 && r.total < 0 && int64(total) <= int64(r.cfg.MaxGroups) {
		r.total = int(total)
	}
}

func (r *ReceiverN2) onFin(pkt *packet.Packet) {
	r.noteTotal(pkt.Total)
	if len(pkt.Payload) >= 8 {
		r.msgLen = binary.BigEndian.Uint64(pkt.Payload)
		r.sawFin = true
	}
	if r.total > 0 {
		for m := 0; m < r.total; m++ {
			if _, ok := r.shards[uint32(m)]; !ok {
				r.armNak(uint32(m))
			}
		}
	}
	r.maybeComplete()
}

func (r *ReceiverN2) maybeComplete() {
	if r.complete || !r.sawFin || r.total < 0 || len(r.shards) < r.total {
		return
	}
	msg := make([]byte, 0, r.total*r.cfg.ShardSize)
	for m := 0; m < r.total; m++ {
		shard, ok := r.shards[uint32(m)]
		if !ok {
			return
		}
		msg = append(msg, shard...)
	}
	if uint64(len(msg)) < r.msgLen {
		return
	}
	msg = msg[:r.msgLen]
	r.complete = true
	r.stats.Reassembly = 1
	r.Close()
	if r.OnComplete != nil {
		r.OnComplete(msg)
	}
}
