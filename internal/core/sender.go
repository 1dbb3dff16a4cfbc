package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"rmfec/internal/adapt"
	"rmfec/internal/gf256"
	"rmfec/internal/metrics"
	"rmfec/internal/packet"
	"rmfec/internal/pipeline"
)

// SenderStats counts the sender's protocol activity; Parities/DataTx
// directly measure the bandwidth metric E[M] of the paper:
// E[M] = (DataTx + ParityTx) / (original data packets).
type SenderStats struct {
	DataTx    int // data packet transmissions (incl. exhaustion re-sends)
	ParityTx  int // parity packet transmissions
	PollTx    int // POLLs sent
	FinTx     int // FINs sent
	NakRx     int // NAKs received
	NakServed int // NAKs that triggered a parity round
	Encoded   int // parity shards actually encoded, ahead on the pool or on demand
	TxErrors  int // frames the transport reported as failed to send
	NcTx      int // network-coded repair packets (NCREPAIR) transmitted
	NcRounds  int // repair rounds served with NC combinations instead of parities
}

// PipelineStats reports the pipelined path's behaviour for one transfer.
type PipelineStats struct {
	EncodeHits   uint64 // TGs whose parities were ready when first needed
	EncodeMisses uint64 // TGs the engine had to wait on the encode pool for
	Batches      int    // batched data-plane transmissions
	BatchedPkts  int    // frames that left inside those batches
}

// Sender is the NP protocol sender: it multicasts a message as a series of
// transmission groups, polls for per-TG feedback and repairs losses by
// multicasting parities.
//
// There is one path from message to groups. Send borrows the caller's
// message; startEra cuts its unstreamed remainder into an ERA — the groups
// that share one working point (k, h, codec) — whose data shards are views
// into it; refill streams one group per call. The redundancy policy
// (constant, EWMA or ladder, see redundancy.go) says how many
// parities join each group's first round and when the working point moved;
// a move flushes the era at the TG boundary and re-cuts the remainder. A
// static transfer is simply one era.
//
// With Config.Pipeline enabled the first proactive parities of upcoming
// groups are computed on a bounded worker pool while earlier groups are on
// the wire, and data frames leave in batches through BatchEnv-capable
// transports. The engine marshals every frame into a recycled buffer (the
// steady-state transmit path allocates nothing). The wire transcript is
// byte-identical at every depth and worker count.
type Sender struct {
	env  Env
	benv BatchEnv // env's batching extension; nil when unsupported/disabled
	tenv TickEnv  // env's uncancellable-timer extension; nil when unsupported
	cfg  Config

	total uint32 // Total of TG-scoped packets: the message's source-shard count

	policy redundancy
	ctl    *adapt.Controller // the ladder policy's controller, else nil
	codecs codecCache        // per-(k, h, codec) memo; one entry on a static session
	minK   int               // smallest k the policy can cut at; bounds the group count

	msg     []byte     // the caller's payload, borrowed until Close and never written
	cursor  int        // bytes of msg streamed so far
	groups  []*txGroup // groups streamed so far, in stream order
	era     []txGroup  // groups cut at the current working point
	eraNext int        // next era group to stream
	zero    []byte     // shared read-only all-padding shard

	// sendQ is the paced transmission queue. Parity service rounds are
	// queued at the front ("the sender interrupts sending data packets of
	// TGm, m > i"), data at the back.
	sendQ   outQueue
	frames  bufPool  // recycled wire frames; every transmit returns here
	batch   [][]byte // scratch for one batched transmission
	round   []outPkt // scratch for assembling a service round
	run     [][]byte // scratch for one run of parity frames (parityRun)
	pay     [][]byte // scratch: the run's payload regions left to encode
	pumping bool
	// maxHeard is the largest deficit any admitted NAK stated, clamped to
	// its group's k; 0 until the first NAK. It sizes every POLL's slot span.
	maxHeard int
	finLeft  int
	finDue   bool // a FIN repeat's timer is pending
	closed   bool
	started  bool

	// Encode-ahead pool over the current era; nil when the pipeline is off
	// or the era sends no proactive parities. Pool job g fills era group
	// g's parities before the group is needed. encDone counts collected
	// jobs for the queue-depth gauge.
	enc     *pipeline.Pool
	encDone int

	// NC retransmission scratch (Config.NCRepair): the combo masks of one
	// repair round and the XOR accumulation buffer, both reused.
	ncCombos []uint64
	ncShard  []byte

	pumpCb func() // hoisted pacing callback; one closure per Sender
	finCb  func() // hoisted FIN-repeat callback

	// arq marks an N2 sender (NewSenderN2): no POLL follows a data round or
	// a repair round, so receivers NAK the gaps they see and the FIN.
	arq bool

	stats   SenderStats
	pstats  PipelineStats
	m       senderMetrics
	flushed bool // per-TG transmission histogram observed (once, at Close)
}

// txGroup is one transmission group: its working point and code, fixed
// when its era was cut, and its repair state.
type txGroup struct {
	index      uint32
	data       [][]byte // k shards: views into Sender.msg, a zero-padded tail copy, or Sender.zero
	k          int      // data shards
	h          int      // parity budget
	aUsed      int      // proactive parities sent with round 1; the ladder's censoring input
	parities   [][]byte // parities 0..A-1 of the era's working point, computed by the encode-ahead pool
	collected  bool     // encode-ahead job results folded in
	nextParity int      // next unsent parity index (0-based)
	queued     int      // parities queued but not yet sent, for NAK aggregation
	served     int      // repair packets the group's service rounds queued, up to maxServed; a POLL's Seq
	resendCur  int      // rotating data index for the parity-exhaustion fallback
	maxNeed    int      // largest NAK deficit seen; feeds the ladder's estimator
	txCount    int      // data+parity packets actually transmitted for this TG

	// codec is the group's repair code; codecID/codecArg its wire
	// identity. Repairs of an old group keep using its own code after
	// later eras renegotiated.
	codec    Codec
	codecID  uint8
	codecArg uint8

	// NC retransmission state: missing-data bitmaps heard in NAK
	// payloads since the last served round. lossUnknown marks a NAK that
	// carried no map, poisoning NC for the group (a blind receiver could
	// not decode combos reliably).
	lossMaps    []uint64
	lossUnknown bool
}

type outPkt struct {
	wire    []byte
	control bool
	kind    packet.Type
	// service marks a repair packet queued in response to a NAK; tg is the
	// group it repairs. tg.queued is decremented when the packet leaves;
	// a NAK with no usable echo is aggregated against what is still queued.
	service bool
	tg      *txGroup
}

// NewSender creates an NP sender on env. The configuration is defaulted
// and validated.
func NewSender(env Env, cfg Config) (*Sender, error) {
	cfg.Defaults()
	return newSender(env, cfg, false)
}

// NewSenderN2 creates a sender of the ARQ-only baseline N2 (Towsley, Kurose
// and Pingali) on env: NP pinned to k = 1 with no parities (Config.pinN2),
// so that every packet is its own group and a NAK's repair is the
// parity-exhausted resend of the original, and with no POLL after a round.
// Eq 8 at k = 1 is Eq 1.
func NewSenderN2(env Env, cfg Config) (*Sender, error) {
	cfg.Defaults()
	cfg.pinN2()
	return newSender(env, cfg, true)
}

func newSender(env Env, cfg Config, arq bool) (*Sender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sender{env: env, cfg: cfg, minK: cfg.K, arq: arq,
		codecs: newCodecCache(cfg.ShardSize, cfg.Metrics), m: newSenderMetrics(cfg.Metrics, cfg.K)}
	// Building the initial working point's codec here reports a config the
	// codec layer refuses (GF(2^16) with an odd ShardSize) as an error.
	if _, err := s.codecs.get(cfg.K, cfg.MaxParity, packet.CodecRS, 0); err != nil {
		return nil, err
	}
	fixed := constantPolicy{adapt.Params{K: cfg.K, H: cfg.MaxParity, A: cfg.Proactive}}
	switch {
	case cfg.AdaptiveFEC:
		s.ctl = adapt.New(cfg.Adapt, cfg.Metrics)
		s.policy = &ladderPolicy{ctl: s.ctl, lag: cfg.ObserveLag}
		for _, r := range cfg.Adapt.Ladder {
			if r.P.K < s.minK {
				s.minK = r.P.K
			}
		}
	case cfg.Adaptive:
		s.policy = &ewmaPolicy{fixed, float64(cfg.Proactive)}
	default:
		s.policy = fixed
	}
	s.frames.minCap = packet.HeaderLen + cfg.ShardSize // a data or parity frame
	s.pumpCb = func() {
		s.pumping = false
		s.pump()
	}
	s.finCb = func() {
		s.finDue = false
		if !s.closed {
			s.enqueueFin()
			s.pump()
		}
	}
	s.tenv, _ = env.(TickEnv)
	if cfg.Pipeline.enabled() && cfg.Pipeline.Batch > 1 {
		s.benv, _ = env.(BatchEnv)
		s.batch = make([][]byte, 0, cfg.Pipeline.Batch)
	}
	return s, nil
}

// Stats returns a snapshot of the sender's counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// PipelineStats returns a snapshot of the pipelined path's counters; all
// zero for a serial (Depth = 0) sender.
func (s *Sender) PipelineStats() PipelineStats { return s.pstats }

// Groups returns the number of transmission groups the message is cut into
// so far: those streamed plus the rest of the current era. It is the final
// count from Send on for a static transfer; under adaptive FEC a retune
// re-cuts the unstreamed part, so it is final once the last group is
// streamed.
func (s *Sender) Groups() int { return len(s.groups) + len(s.era) - s.eraNext }

// SourcePackets returns the number of distinct source (data) packets of
// the groups Groups counts — the E[M] denominator. Under adaptive FEC
// groups carry different k, so this is the per-group sum rather than
// Groups()*K.
func (s *Sender) SourcePackets() int {
	n := 0
	for _, tg := range s.groups {
		n += tg.k
	}
	for i := s.eraNext; i < len(s.era); i++ {
		n += s.era[i].k
	}
	return n
}

// Adapt returns the adaptive FEC controller, or nil when the sender runs a
// static configuration. Read it only from the transport's event goroutine
// (e.g. inside conn.Do), like Stats.
func (s *Sender) Adapt() *adapt.Controller { return s.ctl }

// GroupInfo is one transmission group's negotiated working point and
// realized cost, as reported by GroupTrace.
type GroupInfo struct {
	Index   uint32
	K, H    int // codec parameters the group was cut at
	AUsed   int // proactive parities the group's first round carried
	TxCount int // data+parity transmissions so far, repairs included
}

// GroupTrace snapshots the per-group parameter trajectory of the groups
// streamed so far, in stream order — under adaptive FEC this is the retune
// schedule the scenario tooling plots. Same goroutine rules as Stats.
func (s *Sender) GroupTrace() []GroupInfo {
	out := make([]GroupInfo, len(s.groups))
	for i, tg := range s.groups {
		out[i] = GroupInfo{Index: tg.index, K: tg.k, H: tg.h, AUsed: tg.aUsed, TxCount: tg.txCount}
	}
	return out
}

// Close stops the sender; queued packets are dropped. The first Close
// also flushes the per-TG transmission histogram (np_sender_tg_transmissions)
// so the live E[M] = mean(tg transmissions)/k becomes readable from the
// registry.
func (s *Sender) Close() {
	s.closed = true
	s.sendQ.reset()
	s.m.queueDepth.Set(0)
	if s.enc != nil {
		s.enc.Close()
		s.enc = nil
		s.m.encQueue.Set(0)
	}
	if !s.flushed {
		s.flushed = true
		for _, tg := range s.groups {
			if tg.txCount > 0 {
				s.m.tgTx.Observe(float64(tg.txCount))
			}
		}
	}
}

// Send starts the reliable multicast transfer of msg. It must be called at
// most once per Sender; the transfer then proceeds through the Env's timers
// until every NAK has been served and FinCount FINs have been multicast.
// msg is borrowed until Close returns and never written: the data shards
// are views into it, read whenever a frame or a parity is built, so the
// caller must not modify msg before it has closed the sender.
func (s *Sender) Send(msg []byte) error {
	if s.closed {
		return ErrClosed
	}
	if s.started {
		return ErrBusy
	}
	s.started = true
	// Bound the group count by the leanest cut the policy can make: even
	// if a ladder spends the whole transfer on its smallest-k rung, the
	// group index must fit the receivers' MaxGroups budget.
	maxTG := groupsFor(len(msg), s.minK*s.cfg.ShardSize)
	if maxTG > s.cfg.MaxGroups {
		return fmt.Errorf("core: message needs up to %d TGs (at k = %d), exceeding MaxGroups = %d", maxTG, s.minK, s.cfg.MaxGroups)
	}
	// Re-cuts move the group count but never the shard count: a TG header
	// announces how many source shards the message cuts into (0 for the
	// empty message), which is what a receiver needs to size its
	// reassembly buffer before the FIN.
	s.total = uint32((len(msg) + s.cfg.ShardSize - 1) / s.cfg.ShardSize)
	s.msg = msg
	s.finLeft = s.cfg.FinCount
	s.startEra()
	s.pump()
	return nil
}

// groupsFor returns how many transmission groups of perTG payload bytes a
// message of n bytes cuts into. The empty message still announces one
// (all-padding) group.
func groupsFor(n, perTG int) int {
	if n == 0 {
		return 1
	}
	return (n + perTG - 1) / perTG
}

// startEra (re)cuts the unstreamed remainder of the message into groups at
// the policy's current working point and restarts the encode-ahead pool
// over them. On a retune this is the renegotiation flush: the previous
// era's unstreamed groups and queued encode jobs are discarded at the TG
// boundary. Groups already streamed are untouched — their repairs keep
// using their own parameters and code.
func (s *Sender) startEra() {
	if s.enc != nil {
		s.enc.Close()
		s.enc = nil
		s.m.encQueue.Set(0)
	}
	p := s.policy.era()
	code, id, arg := s.eraCodec(p)
	size := s.cfg.ShardSize
	n := groupsFor(len(s.msg)-s.cursor, p.K*size)
	// Data shards are cap-clipped views into the borrowed message; only a
	// trailing partial shard is copied (zero-padded), and shards wholly
	// past the end share one zero shard. Nothing writes through them.
	shards := make([][]byte, n*p.K)
	for i := range shards {
		switch off := s.cursor + i*size; {
		case off+size <= len(s.msg):
			shards[i] = s.msg[off : off+size : off+size]
		case off < len(s.msg):
			shards[i] = make([]byte, size)
			copy(shards[i], s.msg[off:])
		default:
			if s.zero == nil {
				s.zero = make([]byte, size)
			}
			shards[i] = s.zero
		}
	}
	s.era = make([]txGroup, n)
	s.eraNext = 0
	for g := range s.era {
		s.era[g] = txGroup{index: uint32(len(s.groups) + g), data: shards[g*p.K : (g+1)*p.K : (g+1)*p.K],
			k: p.K, h: p.H, codec: code, codecID: id, codecArg: arg}
	}
	if !s.cfg.Pipeline.enabled() || p.A == 0 {
		return
	}
	// Encode-ahead: each group's first p.A parities are computed on the
	// worker pool while earlier groups are on the wire. The window is the
	// era's steady proactive level even when a group sends fewer (a ladder
	// probe) or more (the EWMA): the spare parities serve the repair
	// rounds, and the engine tops up serially beyond the window exactly as
	// it tops up NAK repairs.
	s.encDone = 0
	parity := make([][]byte, n*p.A)
	for g := range s.era {
		s.era[g].parities = parity[g*p.A : (g+1)*p.A : (g+1)*p.A]
	}
	s.enc = pipeline.New(n, s.cfg.Pipeline.Workers, s.encodeJob)
	s.enc.Prefetch(s.cfg.Pipeline.Depth - 1)
}

// eraCodec resolves the repair code an era uses: the working point's
// requested codec when the codec gate admits it, else the Reed-Solomon
// incumbent at the same (k, h) — which is also what every static session
// requests. The gate mode (Config.CodecGate) decides whether admission
// follows gateAdmit's cost rule, is forced or is denied.
func (s *Sender) eraCodec(p adapt.Params) (code Codec, id, arg uint8) {
	rs, err := s.codecs.get(p.K, p.H, packet.CodecRS, 0)
	if err != nil {
		panic(err) // NewSender built the static point; ladder rungs are validated against codec limits
	}
	if p.Codec == packet.CodecRS {
		return rs, packet.CodecRS, 0
	}
	cand, err := s.codecs.get(p.K, p.H, p.Codec, p.CodecArg)
	if err != nil {
		// Validated ladders cannot reach here, but a hand-built one can;
		// fall back to RS rather than killing the transfer.
		s.m.gateReject.Inc()
		return rs, packet.CodecRS, 0
	}
	admit := false
	switch s.cfg.CodecGate {
	case GateForce:
		admit = true
		s.m.gateForced.Inc()
	case GateOff:
		s.m.gateReject.Inc()
	default:
		admit = gateAdmit(p.K, int(p.CodecArg))
		if admit {
			s.m.gateAdmit.Inc()
		} else {
			s.m.gateReject.Inc()
		}
	}
	if !admit {
		return rs, packet.CodecRS, 0
	}
	return cand, p.Codec, p.CodecArg
}

// encodeJob computes era group g's first len(parities) parities. It runs
// on a pool worker and writes only the group's own parities; the engine
// reads them only after collectParities has Waited on the job, which
// publishes the writes. Row j here is byte-identical to the serial path's
// (Codec.EncodeRows computes a row the same in any run), which is what
// keeps a pipelined zero-loss transcript equal to the serial one. A failed
// call leaves every row empty, and parityRun encodes them serially.
func (s *Sender) encodeJob(g int) {
	tg := &s.era[g]
	tg.codec.EncodeRows(0, tg.data, tg.parities) //nolint:errcheck // failed rows stay empty; engine re-encodes
}

// collectParities folds tg's encode-ahead job into the engine: waits on
// it (a hit when it was already complete), advances the prefetch window
// by one group, and accounts the encoded shards. No-op without a pool and
// after the first collection.
func (s *Sender) collectParities(tg *txGroup) {
	// era[0]'s global index is the count of groups streamed before the era.
	rel := int(tg.index) - (len(s.groups) - s.eraNext)
	if s.enc == nil || tg.collected || rel < 0 {
		// The last case is a group from a flushed era: its pool is gone
		// and any uncollected parities were discarded with it.
		return
	}
	tg.collected = true
	if s.enc.Wait(rel) {
		s.pstats.EncodeHits++
		s.m.encHits.Inc()
	} else {
		s.pstats.EncodeMisses++
		s.m.encMisses.Inc()
	}
	s.encDone++
	s.enc.Prefetch(rel + s.cfg.Pipeline.Depth)
	s.m.encQueue.Set(int64(s.enc.Submitted() - s.encDone))
	enc := 0
	for _, p := range tg.parities {
		if len(p) > 0 {
			enc++
		}
	}
	s.stats.Encoded += enc
	s.m.encoded.Add(uint64(enc))
}

// refill streams the next transmission group's first round into the send
// queue: k data packets, the parities the policy grants it, and (except in
// carousel mode) the POLL soliciting per-TG feedback. The FIN follows the
// last group. Streaming one group at a time lets the policy steer later
// groups with earlier groups' feedback; when it moves the working point,
// the remainder is re-cut before the group is taken.
func (s *Sender) refill() {
	if s.eraNext >= len(s.era) {
		return // not started, or every group streamed
	}
	a, recut := s.policy.next(s.groups)
	if recut {
		// era cut runs once per retune, not per group; amortized across the era's groups
		s.startEra()
	}
	tg := &s.era[s.eraNext]
	s.eraNext++
	// session-lifetime group log; doubling growth is amortized over the transfer
	s.groups = append(s.groups, tg)
	s.cursor = min(s.cursor+tg.k*s.cfg.ShardSize, len(s.msg))
	s.collectParities(tg)
	for i := 0; i < tg.k; i++ {
		s.enqueue(outPkt{wire: s.dataPacket(tg, i), kind: packet.TypeData, tg: tg})
	}
	// An error cannot happen with a validated config; the poll still goes out.
	run, _ := s.parityRun(tg, min(a, tg.h))
	for _, wire := range run {
		s.enqueue(outPkt{wire: wire, kind: packet.TypeParity, tg: tg})
	}
	tg.aUsed = len(run)
	if !s.cfg.Carousel && !s.arq {
		s.enqueue(outPkt{wire: s.pollPacket(tg, tg.k+tg.aUsed), control: true, kind: packet.TypePoll})
	}
	s.m.groups.Inc()
	s.m.sourcePkts.Add(uint64(tg.k))
	if s.eraNext == len(s.era) {
		s.enqueueFin()
	}
}

// HandlePacket feeds an incoming wire packet (a NAK, in a sender's case)
// to the engine. Non-NAK or foreign-session packets are ignored.
func (s *Sender) HandlePacket(wire []byte) {
	if s.closed {
		return
	}
	var pkt packet.Packet
	if err := packet.DecodeInto(&pkt, wire); err != nil || pkt.Session != s.cfg.Session {
		return
	}
	if pkt.Type != packet.TypeNak {
		return
	}
	s.stats.NakRx++
	s.m.nakRx.Inc()
	s.cfg.Trace.Record(metrics.Event{At: s.env.Now(), Kind: TraceNakRx, A: uint64(pkt.Group), B: uint64(pkt.Count)})
	// Only streamed groups can be NAKed: a forged or corrupt NAK naming a
	// later group must not put parities on the wire ahead of their data
	// (or make the engine wait on the whole encode backlog).
	if uint64(pkt.Group) >= uint64(len(s.groups)) {
		return
	}
	tg := s.groups[pkt.Group]
	// A receiver can never miss more than the k packets of a TG; larger
	// values are corruption or hostility, so clamp rather than flood the
	// group with repairs (or widen the slot span past the round).
	need := min(int(pkt.Count), tg.k)
	if need <= 0 {
		return
	}
	tg.maxNeed = max(tg.maxNeed, need)
	s.maxHeard = max(s.maxHeard, need)
	if s.cfg.NCRepair {
		// Record the loss map BEFORE the aggregation early-return below:
		// a second receiver's map must refine the combo plan even when its
		// deficit is already covered by queued repairs.
		s.recordLossMap(tg, pkt.Payload)
	}
	s.policy.heard(need)
	// Serve only what no repair already covers: those still queued, and
	// those queued since the POLL the NAK echoes — its receiver counted its
	// deficit before they could reach it, so a NAK that raced an earlier one
	// for the same round buys nothing twice. An echo past served — a
	// retry's noEcho, which served never reaches, or a forged one — counts
	// the queue alone.
	covered := max(tg.queued, tg.served-int(pkt.Seq))
	if need <= covered {
		return
	}
	extra := need - covered
	s.stats.NakServed++
	s.m.serviceRounds.Inc()
	s.cfg.Trace.Record(metrics.Event{At: s.env.Now(), Kind: TraceServiceRound, A: uint64(tg.index), B: uint64(extra)})
	s.serviceRound(tg, extra)
}

// maxLossMaps bounds the distinct per-receiver loss bitmaps aggregated
// per TG: past it the combo constraint set degenerates toward one packet
// per lost seq anyway, so the sender stops tracking and lets the round
// fall back to parities/resends.
const maxLossMaps = 16

// recordLossMap folds the loss bitmap a NAK carried in its payload
// into tg's NC state. A NAK without a well-formed map marks the group's
// losses unknown, which disables NC for it: a blind receiver could hold
// packets the combo planner assumed lost, making combos undecodable for
// it.
func (s *Sender) recordLossMap(tg *txGroup, payload []byte) {
	if len(payload) != packet.NcMaskLen || tg.k > 63 {
		tg.lossUnknown = true
		return
	}
	m := binary.BigEndian.Uint64(payload) & (1<<uint(tg.k) - 1)
	if m == 0 {
		// A deficit with no missing data seqs (all losses were parities);
		// nothing for NC to target from this receiver.
		return
	}
	for _, e := range tg.lossMaps {
		if e == m {
			return
		}
	}
	if len(tg.lossMaps) >= maxLossMaps {
		tg.lossUnknown = true
		return
	}
	tg.lossMaps = append(tg.lossMaps, m)
}

// tryNcRound serves a repair round as network-coded XOR combinations of
// the exact data packets the aggregated NAK maps report lost, instead of
// blind parities or rotating original resends. Classic NC retransmission
// (cf. Nguyen et al.): one combo may repair a different loss at every
// receiver, so the round needs only as many packets as the largest
// per-receiver deficit — not the union size — and, unlike the
// parity-exhaustion fallback, never transmits a packet every NAKing
// receiver already holds. The greedy packer adds each lost seq to the
// first combo that keeps every receiver's map intersecting the combo in
// at most one bit (the decodability condition: a receiver XORs out the
// members it holds and must be left with exactly its one missing seq).
// It is attempted only when the remaining parity budget cannot cover the
// deficit — where the alternative is the multi-round blind-resend
// carousel — so enabling NC never costs a group that parities would have
// repaired in one round.
func (s *Sender) tryNcRound(tg *txGroup, extra int) bool {
	if tg.lossUnknown || len(tg.lossMaps) == 0 || tg.h-tg.nextParity >= extra {
		return false
	}
	union := uint64(0)
	for _, m := range tg.lossMaps {
		union |= m
	}
	combos := s.ncCombos[:0]
	for rest := union; rest != 0; {
		bit := rest & (-rest)
		rest &^= bit
		placed := false
		for ci, c := range combos {
			ok := true
			for _, m := range tg.lossMaps {
				if bits.OnesCount64((c|bit)&m) > 1 {
					ok = false
					break
				}
			}
			if ok {
				combos[ci] = c | bit
				placed = true
				break
			}
		}
		if !placed {
			// combo scratch reuses the s.ncCombos backing; bounded by the union popcount
			combos = append(combos, bit)
		}
	}
	s.ncCombos = combos
	round := s.round[:0]
	for _, c := range combos {
		// round reuses the s.round backing; grows only until the largest repair round
		round = append(round, outPkt{wire: s.ncPacket(tg, c), kind: packet.TypeNcRepair, service: true, tg: tg})
	}
	tg.lossMaps = tg.lossMaps[:0]
	s.stats.NcRounds++
	s.m.ncRounds.Inc()
	s.queueRound(tg, round)
	return true
}

// ncPacket builds one NCREPAIR frame: payload = 8-byte big-endian mask
// of the combined data seqs ‖ their XOR.
func (s *Sender) ncPacket(tg *txGroup, mask uint64) []byte {
	n := packet.NcMaskLen + s.cfg.ShardSize
	if cap(s.ncShard) < n {
		s.ncShard = make([]byte, n) // once per sender; reused every combo
	}
	buf := s.ncShard[:n]
	binary.BigEndian.PutUint64(buf, mask)
	body := buf[packet.NcMaskLen:]
	first := true
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << uint(i)
		if first {
			copy(body, tg.data[i])
			first = false
		} else {
			gf256.AddSlice(tg.data[i], body)
		}
	}
	return s.tgFrame(packet.Packet{Type: packet.TypeNcRepair, Payload: buf}, tg)
}

// serviceRound queues `extra` repair packets for tg at the FRONT of the
// send queue, followed by a POLL, preempting data of later groups and the
// FIN train.
func (s *Sender) serviceRound(tg *txGroup, extra int) {
	s.collectParities(tg) // a NAK can outrun the group's refill
	if s.cfg.NCRepair && s.tryNcRound(tg, extra) {
		return
	}
	run, err := s.parityRun(tg, min(extra, tg.h-tg.nextParity))
	if err != nil {
		return // cannot happen with a validated config; drop the round
	}
	round := s.round[:0]
	for _, wire := range run {
		// round reuses the s.round backing; grows only until the largest repair round
		round = append(round, outPkt{wire: wire, kind: packet.TypeParity, service: true, tg: tg})
	}
	for i := len(run); i < extra; i++ {
		// Parities exhausted: fall back to re-sending the originals
		// (equivalent to regrouping the TG, Section 3.2). A rotating
		// cursor guarantees every data packet is re-sent within K
		// fallback transmissions, so any loss pattern is eventually
		// repaired.
		idx := tg.resendCur % tg.k
		tg.resendCur++
		round = append(round, outPkt{wire: s.dataPacket(tg, idx), kind: packet.TypeData, service: true, tg: tg})
	}
	s.queueRound(tg, round)
}

// queueRound puts a service round's repairs for tg, then (except on N2)
// the POLL that closes the round, at the front of the send queue, and
// pumps: the round leaves as soon as pacing allows, even between two FIN
// repeats.
func (s *Sender) queueRound(tg *txGroup, round []outPkt) {
	n := len(round)
	tg.queued += n
	tg.served = min(tg.served+n, maxServed)
	if !s.arq {
		// round reuses the s.round backing; grows only until the largest repair round
		round = append(round, outPkt{wire: s.pollPacket(tg, n), control: true, kind: packet.TypePoll})
	}
	for i := len(round) - 1; i >= 0; i-- {
		s.sendQ.pushFront(round[i])
	}
	s.round = round[:0]
	s.m.queueDepth.Set(int64(s.sendQ.size()))
	s.pump()
}

func (s *Sender) enqueue(p outPkt) {
	s.sendQ.pushBack(p)
	s.m.queueDepth.Set(int64(s.sendQ.size()))
}

func (s *Sender) enqueueFin() {
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], uint64(len(s.msg)))
	// The FIN carries the transfer's only group count (TG headers announce
	// the source-shard count instead). It is first enqueued after the last
	// group, when len(s.groups) is final. A static session's FIN states its
	// working point; a renegotiating one's states H = 0 at the initial
	// rung's k, which no static receiver but N2 at k = 1 matches
	// (RxRules.Fin).
	p := packet.Packet{
		Type:    packet.TypeFin,
		Session: s.cfg.Session,
		K:       uint16(s.cfg.K),
		Total:   uint32(len(s.groups)),
		Payload: payload[:],
	}
	if s.ctl == nil {
		p.H = uint16(s.cfg.MaxParity)
	}
	s.enqueue(outPkt{wire: s.frameFor(&p), control: true, kind: packet.TypeFin})
}

// frameFor marshals p into a pooled wire frame. The frame returns to the
// pool right after the transport call in transmit/flushBatch, so the
// steady-state data path recycles a fixed working set of buffers.
func (s *Sender) frameFor(p *packet.Packet) []byte {
	return marshal(p, s.frames.get(p.EncodedLen()))
}

// marshal encodes p into frame and returns it.
func marshal(p *packet.Packet, frame []byte) []byte {
	if _, err := p.MarshalTo(frame); err != nil {
		panic(err) // engine-built packets are statically valid
	}
	return frame
}

// stamp fills the header fields every packet of tg shares: the session and
// Total, and the group's working point.
func (s *Sender) stamp(p *packet.Packet, tg *txGroup) {
	p.Session, p.Total = s.cfg.Session, s.total
	p.Group, p.K, p.H = tg.index, uint16(tg.k), uint16(tg.h)
	p.Codec, p.CodecArg = tg.codecID, tg.codecArg
}

// tgFrame stamps p as a packet of tg and marshals it into a pooled frame.
func (s *Sender) tgFrame(p packet.Packet, tg *txGroup) []byte {
	s.stamp(&p, tg)
	return s.frameFor(&p)
}

func (s *Sender) dataPacket(tg *txGroup, i int) []byte {
	return s.tgFrame(packet.Packet{Type: packet.TypeData, Seq: uint16(i), Payload: tg.data[i]}, tg)
}

// parityRun frames tg's next n parities, n <= tg.h - tg.nextParity, and
// returns the frames (in s.run, valid until the next call). A parity the
// encode-ahead pool computed is copied into its frame; the others are
// encoded by one codec call straight into their frames' payload regions,
// each marshalled with its own region as the payload, which the copy
// skips. A group's pre-encoded parities are all or none of its first
// rows, so those left to encode are the run's tail.
func (s *Sender) parityRun(tg *txGroup, n int) ([][]byte, error) {
	run, pay := s.run[:0], s.pay[:0]
	j0 := tg.nextParity
	for j := j0; j < j0+n; j++ {
		frame := s.frames.get(packet.HeaderLen + s.cfg.ShardSize)
		p := packet.Packet{Type: packet.TypeParity, Seq: uint16(tg.k + j), Payload: frame[packet.HeaderLen:]}
		if j < len(tg.parities) && len(tg.parities[j]) > 0 {
			p.Payload = tg.parities[j]
		} else {
			// pay reuses the s.pay backing; grows only until the largest run
			pay = append(pay, p.Payload)
		}
		s.stamp(&p, tg)
		// run reuses the s.run backing; grows only until the largest run
		run = append(run, marshal(&p, frame))
	}
	s.run, s.pay = run, pay
	if err := tg.codec.EncodeRows(j0+n-len(pay), tg.data, pay); err != nil {
		return nil, err // the frames are dropped to the collector
	}
	s.stats.Encoded += len(pay)
	s.m.encoded.Add(uint64(len(pay)))
	tg.nextParity += n
	return run, nil
}

// maxServed is where txGroup.served saturates: one below noEcho, so a POLL
// never states what a NAK uses to say it echoes none.
const maxServed = noEcho - 1

// pollPacket builds tg's POLL for a round of n packets. Its Seq is the
// repairs served so far, which the NAKs answering it echo. Its Count is the
// slot span receivers count down from: n until a NAK is heard, then at most
// one past the largest deficit heard, so the largest deficit still answers
// first without waiting out slots no deficit the session produced would
// land in.
func (s *Sender) pollPacket(tg *txGroup, n int) []byte {
	if s.maxHeard > 0 {
		n = min(n, s.maxHeard+1)
	}
	return s.tgFrame(packet.Packet{Type: packet.TypePoll, Seq: uint16(tg.served), Count: uint16(n)}, tg)
}

// pump drains the send queue: one packet per Delta on the serial path, up
// to Pipeline.Batch data frames per n*Delta tick on the batched path. It
// never sleeps longer than that pacing gap: the FIN repeat runs on its own
// timer, so a repair round queued between two FINs leaves at once.
func (s *Sender) pump() {
	if s.pumping || s.closed {
		return
	}
	if s.sendQ.empty() {
		s.refill()
	}
	if s.sendQ.empty() {
		// Data and service rounds drained; keep repeating FIN so that
		// receivers that lost it learn the transfer bounds.
		if s.finLeft > 0 && !s.finDue {
			s.finLeft--
			s.finDue = true
			s.tick(s.cfg.FinInterval, s.finCb)
		}
		return
	}
	n := 1
	if s.batch != nil {
		n = s.pumpBatch()
	} else {
		out := s.sendQ.popFront()
		s.m.queueDepth.Set(int64(s.sendQ.size()))
		s.transmit(out)
	}
	s.pumping = true
	s.tick(time.Duration(n)*s.cfg.Delta, s.pumpCb)
}

// tick arms one of the sender's timers, none of which is ever cancelled:
// through TickEnv when the env has it, which builds no cancel func, else
// through After.
func (s *Sender) tick(d time.Duration, fn func()) {
	if s.tenv != nil {
		s.tenv.Tick(d, fn)
		return
	}
	s.env.After(d, fn)
}

// pumpBatch sends up to Pipeline.Batch consecutive data-plane frames as
// one batch, or a single control packet — control traffic delimits rounds
// and always travels alone, keeping per-plane accounting identical to the
// serial path. It returns the number of packet slots consumed, which
// scales the pacing gap so the average rate stays one packet per Delta.
func (s *Sender) pumpBatch() int {
	n := 0
	for n < s.cfg.Pipeline.Batch && !s.sendQ.empty() {
		if s.sendQ.front().control {
			if n == 0 {
				s.transmit(s.sendQ.popFront())
				n = 1
			}
			break
		}
		out := s.sendQ.popFront()
		s.account(out)
		// batch backing is reused across pumps; grows only to Pipeline.Batch
		s.batch = append(s.batch, out.wire)
		n++
	}
	if len(s.batch) > 0 {
		s.pstats.Batches++
		s.pstats.BatchedPkts += len(s.batch)
		s.m.batchPkts.Observe(float64(len(s.batch)))
		// Datagrams are best-effort — a failed frame is NOT retried (the
		// NAK path repairs any resulting gap) — but failures are counted,
		// not dropped: sent tells exactly how many leading frames made it,
		// so partial batch sends account frame-exactly.
		if s.benv != nil {
			sent, err := s.benv.MulticastBatch(s.batch)
			if err != nil {
				s.countTxErrors(len(s.batch) - sent)
			}
		} else {
			for _, f := range s.batch {
				if err := s.env.Multicast(f); err != nil {
					s.countTxErrors(1)
				}
			}
		}
		for i, f := range s.batch {
			s.frames.put(f)
			s.batch[i] = nil
		}
		s.batch = s.batch[:0]
	}
	s.m.queueDepth.Set(int64(s.sendQ.size()))
	return n
}

// account applies the bookkeeping of one departing packet: stats, metrics
// and the NAK-aggregation window.
func (s *Sender) account(out outPkt) {
	// Every enqueue path stamps the packet kind, so no wire decode is
	// needed here to classify the transmission.
	switch out.kind {
	case packet.TypeData:
		s.stats.DataTx++
		s.m.dataTx.Inc()
	case packet.TypeParity:
		s.stats.ParityTx++
		s.m.parityTx.Inc()
	case packet.TypeNcRepair:
		s.stats.NcTx++
		s.m.ncTx.Inc()
	case packet.TypePoll:
		s.stats.PollTx++
		s.m.pollTx.Inc()
	case packet.TypeFin:
		s.stats.FinTx++
		s.m.finTx.Inc()
	}
	if out.tg != nil && out.kind != packet.TypePoll && out.kind != packet.TypeFin {
		out.tg.txCount++
	}
	if out.service && out.tg != nil && out.tg.queued > 0 {
		out.tg.queued--
	}
}

// countTxErrors records n frames the transport failed to send, in both
// the stats snapshot and the live counter.
func (s *Sender) countTxErrors(n int) {
	if n <= 0 {
		return
	}
	s.stats.TxErrors += n
	s.m.txErrors.Add(uint64(n))
}

func (s *Sender) transmit(out outPkt) {
	s.account(out)
	var err error
	if out.control {
		err = s.env.MulticastControl(out.wire)
	} else {
		err = s.env.Multicast(out.wire)
	}
	if err != nil {
		// Best-effort datagrams: no retry (the NAK path repairs gaps), but
		// the failure is counted instead of silently dropped.
		s.countTxErrors(1)
	}
	s.frames.put(out.wire)
}
