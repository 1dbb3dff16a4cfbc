package core

import (
	"encoding/binary"
	"math/bits"
	"time"

	"rmfec/internal/gf256"
	"rmfec/internal/metrics"
	"rmfec/internal/packet"
)

// ReceiverStats counts the receiver's protocol activity.
type ReceiverStats struct {
	DataRx     int // data shards received (first copies)
	ParityRx   int // parity shards received (first copies)
	DupRx      int // duplicate shards
	Decodes    int // TGs that needed Reed-Solomon reconstruction
	NakTx      int // NAKs multicast
	NakSupp    int // NAK timers damped by another receiver's NAK
	PollRx     int // POLLs seen
	NcRx       int // NCREPAIR combos processed
	NcRepaired int // combos that recovered a missing data shard
	Reassembly int // 1 once the message was delivered

	// Group recovery latency: time from a group's first received shard to
	// its reconstruction. The paper leaves FEC's latency benefits to
	// future work; these counters quantify them on the live stack.
	LatencySum time.Duration // summed over recovered groups
	LatencyMax time.Duration
	Groups     int // groups recovered (the latency sample count)
}

// MeanLatency returns the average group recovery latency.
func (st ReceiverStats) MeanLatency() time.Duration {
	if st.Groups == 0 {
		return 0
	}
	return st.LatencySum / time.Duration(st.Groups)
}

// Receiver is the NP protocol receiver. It buffers the shards of each
// transmission group, answers sender POLLs with slotted/damped NAKs
// carrying its remaining deficit, reconstructs each group from any k
// shards, and delivers the reassembled message through the OnComplete
// callback.
//
// The receive path is allocation-free in the steady state and copies each
// payload byte once: packets are decoded in place (packet.DecodeInto) and,
// with OnComplete set, a data shard is copied or rebuilt straight into its
// final offset of the message buffer (shardBuf). In streaming mode (see
// OnGroup) shards are pooled and each group's buffers and bookkeeping
// return to their free-lists as soon as the group is delivered, so an
// arbitrarily long transfer runs in memory proportional to the number of
// groups in flight.
type Receiver struct {
	env  Env
	cfg  Config
	code Codec

	groups   map[uint32]*rxGroup
	totalTG  int    // -1 until learned from a packet
	msgLen   uint64 // valid once a FIN arrived
	sawFin   bool
	decoded  int
	complete bool
	closed   bool

	// group's one-entry memo: lastG is groups[lastIdx], the entry looked up
	// last, or nil (nothing looked up yet, or that group was released).
	lastIdx uint32
	lastG   *rxGroup

	// msgBuf is the message under reassembly (OnComplete mode), committed in
	// steps (commit): data shard seq of group g is message shard g.base+seq
	// and lives at offset(g, seq) once the buffer covers it. slots is how
	// many message shards the sender declared (noteHeader), the most the
	// buffer is ever committed for; 0 until declared. Groups [0, frontG) of
	// an adaptive session have their base, frontBase being the next one.
	msgBuf    []byte
	slots     int
	frontG    uint32
	frontBase int
	firstStep int // firstCommit; tests shrink it to reach the later steps
	loose     int // data shards taken from the pool, not placed in msgBuf; 0 = nothing to gather
	gathers   int // shards the delivery gather had to copy into msgBuf

	shardPool  bufPool    // recycled shard buffers (ShardSize each)
	ctrlFrames bufPool    // recycled NAK wire frames
	freeGroups []*rxGroup // recycled group bookkeeping (streaming mode)
	doneBits   []uint64   // groups released after streaming delivery

	// Adaptive sessions: per-group (k, h) bounds from the ladder, and the
	// per-(k, h) codec cache. Outside adaptive mode maxK/maxH mirror the
	// static config.
	maxK, maxH int
	codecs     codecCache

	// OnComplete is invoked exactly once with the reassembled message; the
	// slice is the callee's to keep (the receiver never touches it again).
	// Leaving it nil selects STREAMING mode: each group's buffers are
	// recycled right after its OnGroup delivery (set callbacks before the
	// first packet arrives), and completion is still observable through
	// Complete and the delivery trace/metrics.
	OnComplete func(msg []byte)
	// OnGroup, if set, is invoked for every group as it becomes decodable,
	// with the group index and its k data shards (valid until return).
	OnGroup func(g uint32, shards [][]byte)

	stats ReceiverStats
	m     receiverMetrics
}

type rxGroup struct {
	shards     [][]byte // len k+h; nil = not received
	k          int      // data shards; 0 while unknown (adaptive group seen only via FIN)
	h          int      // parity budget
	base       int      // message shard index of data shard 0; -1 while unknown (setBase)
	have       int      // shards present
	firstAt    time.Duration
	sawShard   bool
	done       bool
	nakCancel  func()
	nakArmed   bool
	heardNak   int // largest deficit heard from another receiver this round
	retryCount int

	// Codec identity from the group's v2 headers (0/0 = RS, incl. every
	// v1 group); codecSet marks it adopted from the first shard, after
	// which conflicting frames are ignored. code is non-nil only for
	// non-MDS codecs (rect), whose completion/deficit rule needs the
	// shard bitmap instead of the plain count.
	codecID  uint8
	codecArg uint8
	codecSet bool
	code     Codec

	// haveBits tracks present shards i < 64 (complete for any group with
	// k+h <= 64): the rect completion rule and the NC loss maps read it.
	haveBits uint64
}

// NewReceiver creates an NP receiver. cfg must agree with the sender's on
// Session, K, MaxParity and ShardSize.
func NewReceiver(env Env, cfg Config) (*Receiver, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	code, err := newCodec(cfg)
	if err != nil {
		return nil, err
	}
	r := &Receiver{
		env:        env,
		cfg:        cfg,
		code:       code,
		firstStep:  firstCommit,
		groups:     make(map[uint32]*rxGroup),
		totalTG:    -1,
		maxK:       cfg.K,
		maxH:       cfg.MaxParity,
		shardPool:  bufPool{minCap: cfg.ShardSize},
		ctrlFrames: bufPool{minCap: packet.HeaderLen},
		m:          newReceiverMetrics(cfg.Metrics),
	}
	if cfg.AdaptiveFEC {
		r.maxK, r.maxH = cfg.Adapt.MaxKH()
		r.codecs = newCodecCache(cfg.ShardSize, cfg.Metrics)
	}
	return r, nil
}

// Stats returns a snapshot of the receiver's counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Complete reports whether the full message has been delivered.
func (r *Receiver) Complete() bool { return r.complete }

// Close stops the receiver and cancels pending NAK timers.
func (r *Receiver) Close() {
	r.closed = true
	for _, g := range r.groups {
		if g.nakCancel != nil {
			g.nakCancel()
		}
	}
}

// released reports whether a group was delivered and its state recycled
// (streaming mode). Such a group is done; only the bit remembers it.
func (r *Receiver) released(idx uint32) bool {
	w := int(idx >> 6)
	return w < len(r.doneBits) && r.doneBits[w]&(1<<(idx&63)) != 0
}

func (r *Receiver) setReleased(idx uint32) {
	w := int(idx >> 6)
	for len(r.doneBits) <= w {
		//rmlint:ignore hotpath-alloc bitset grows only until noteTotal pre-sizes it
		r.doneBits = append(r.doneBits, 0)
	}
	r.doneBits[w] |= 1 << (idx & 63)
}

// group returns the bookkeeping for TG idx, creating it with the given
// parameters when first seen. k = 0 means the parameters are unknown yet
// (an adaptive group announced only by a FIN): state is sized to the
// ladder's bounds and the true (k, h) is adopted from the first shard.
//
// A group's shards arrive back to back, so the last answer is remembered:
// an OnComplete session holds every group in the map until delivery, and
// one probe per shard into it costs more than the rest of the shard path.
func (r *Receiver) group(idx uint32, k, h int) *rxGroup {
	if r.lastG != nil && r.lastIdx == idx {
		return r.lastG
	}
	g, ok := r.groups[idx]
	if !ok {
		nsh := k + h
		if k == 0 {
			nsh = r.maxK + r.maxH
		}
		if n := len(r.freeGroups); n > 0 {
			g = r.freeGroups[n-1]
			r.freeGroups[n-1] = nil
			r.freeGroups = r.freeGroups[:n-1]
			*g = rxGroup{shards: g.shards} // shards were nil'd at release
			if len(g.shards) != nsh {
				//rmlint:ignore hotpath-alloc re-size only when adjacent groups negotiated different (k,h)
				g.shards = make([][]byte, nsh)
			}
		} else {
			//rmlint:ignore hotpath-alloc one allocation per live group; groups recycle through freeGroups
			g = &rxGroup{shards: make([][]byte, nsh)}
		}
		g.k, g.h, g.base = k, h, -1
		r.groups[idx] = g
		r.setBase(idx, g)
	}
	r.lastIdx, r.lastG = idx, g
	return g
}

// setBase gives g its base as soon as it can be known. On a static session
// that is at once: every group holds K shards. On an adaptive one it is the
// sum of the k of every earlier group, so bases are handed out by a
// frontier that advances over each consecutive group whose k is known
// (call this whenever a group's k becomes known); a group behind an earlier
// one that was lost whole waits.
func (r *Receiver) setBase(idx uint32, g *rxGroup) {
	if !r.cfg.AdaptiveFEC {
		g.base = int(idx) * r.cfg.K
		return
	}
	if idx != r.frontG {
		return
	}
	for ; g != nil && g.k > 0; g = r.groups[r.frontG] {
		g.base = r.frontBase
		r.frontBase += g.k
		r.frontG++
	}
}

// putShards returns pooled shard buffers to the pool and clears their slots.
func (r *Receiver) putShards(shards [][]byte) {
	for i, s := range shards {
		if s != nil {
			r.shardPool.put(s)
			shards[i] = nil
		}
	}
}

// releaseGroup recycles a delivered group's buffers and bookkeeping and
// marks the index done in the bitset, so later packets for it are ignored
// without resurrecting state.
func (r *Receiver) releaseGroup(idx uint32, g *rxGroup) {
	r.setReleased(idx)
	r.putShards(g.shards)
	if g.nakCancel != nil {
		g.nakCancel()
		g.nakCancel = nil
	}
	delete(r.groups, idx)
	if r.lastIdx == idx {
		r.lastG = nil
	}
	//rmlint:ignore hotpath-alloc free-list growth is amortized across the session
	r.freeGroups = append(r.freeGroups, g)
}

// firstCommit is the first step of the message-buffer commit rule.
const firstCommit = 64 << 20

// offset is where data shard seq of g sits in msgBuf, given g's base.
func (r *Receiver) offset(g *rxGroup, seq int) int {
	return (g.base + seq) * r.cfg.ShardSize
}

// shardBuf returns the buffer shard seq of g is received or rebuilt into:
// its final slot in the message buffer if it can be placed, else a pooled
// buffer, which the delivery gather copies into place. Not placeable:
// streaming mode, parities, a group whose base is not known yet, shards
// past the declared count (none declared yet, or the tail group's
// all-padding shards), and slots the commit rule keeps out of the buffer.
//
//rmlint:hotpath
func (r *Receiver) shardBuf(g *rxGroup, seq int) []byte {
	ss := r.cfg.ShardSize
	if seq < g.k {
		if r.OnComplete != nil && g.base >= 0 && g.base+seq < r.slots {
			if off := r.offset(g, seq); off+ss <= len(r.msgBuf) || r.commit(off+ss) {
				return r.msgBuf[off : off+ss : off+ss]
			}
		}
		r.loose++
	}
	return r.shardPool.get(ss)
}

// inPlace reports whether s is the slot of buf that data shard seq of g
// belongs in.
func (r *Receiver) inPlace(s, buf []byte, g *rxGroup, seq int) bool {
	off := r.offset(g, seq)
	return g.base >= 0 && cap(s) > 0 && off < len(buf) && &s[:1][0] == &buf[off]
}

// commit extends msgBuf by one step so that it covers [0, end), or reports
// that the rule forbids it. A header's declared count must not buy memory:
// the first step is min(declared bytes, firstStep), each later one x4 and
// no larger than 4x the shard bytes accepted so far.
func (r *Receiver) commit(end int) bool {
	ss := r.cfg.ShardSize
	declared := r.slots * ss
	size, limit := r.firstStep, declared
	if n := len(r.msgBuf); n > 0 {
		size, limit = 4*n, 4*ss*(r.stats.DataRx+r.stats.ParityRx+r.stats.NcRepaired)
	}
	if size = min(size, declared); size < end || size > limit {
		return false
	}
	r.grow(size)
	return true
}

// grow reallocates msgBuf at size bytes and re-points the live in-place
// shards into the new buffer.
func (r *Receiver) grow(size int) {
	old := r.msgBuf
	//rmlint:ignore hotpath-alloc message buffer commit: at most log4(size/firstCommit)+1 steps per session
	r.msgBuf = make([]byte, size)
	copy(r.msgBuf, old)
	for _, g := range r.groups {
		for j := 0; j < g.k; j++ {
			if s := g.shards[j]; r.inPlace(s, old, g, j) {
				off := r.offset(g, j)
				g.shards[j] = r.msgBuf[off : off+len(s) : off+r.cfg.ShardSize]
			}
		}
	}
}

// HandlePacket feeds an incoming wire packet to the engine. The buffer is
// only read during the call; the engine keeps copies of what it retains,
// so transports may hand the same read buffer to every invocation.
//
//rmlint:hotpath
func (r *Receiver) HandlePacket(wire []byte) {
	if r.closed || r.complete {
		return
	}
	var pkt packet.Packet
	var err error
	if r.cfg.AdaptiveFEC {
		err = packet.DecodeInto(&pkt, wire)
	} else {
		// Non-adaptive receivers speak strict v1: v2 frames of an adaptive
		// session sharing the group are rejected with ErrBadVersion here —
		// cleanly ignored, never misparsed.
		err = packet.DecodeIntoV1(&pkt, wire)
	}
	if err != nil || pkt.Session != r.cfg.Session {
		return
	}
	switch pkt.Type {
	case packet.TypeData, packet.TypeParity:
		r.onShard(&pkt)
	case packet.TypePoll:
		r.onPoll(&pkt)
	case packet.TypeNak:
		r.onNak(&pkt)
	case packet.TypeNcRepair:
		r.onNcRepair(&pkt)
	case packet.TypeFin:
		r.onFin(&pkt)
	}
}

func (r *Receiver) noteTotal(total uint32) {
	if total > 0 && r.totalTG < 0 && int64(total) <= int64(r.cfg.MaxGroups) {
		r.totalTG = int(total)
		// Pre-size the release bitset so the steady state never grows it.
		if need := (r.totalTG + 63) / 64; len(r.doneBits) < need {
			//rmlint:ignore hotpath-alloc one-time pre-size when the total TG count is announced
			bits := make([]uint64, need)
			copy(bits, r.doneBits)
			r.doneBits = bits
		}
	}
}

// noteHeader notes what a TG-scoped frame's Total declares. A v1 header
// states the group count, each group holding k shards; a v2 one announces
// the message's source-shard count itself (0 = unannounced; the group count
// of a v2 session comes with the FIN alone). The first declaration stands.
func (r *Receiver) noteHeader(pkt *packet.Packet, k int) {
	if r.slots > 0 {
		return
	}
	if pkt.Vers != packet.V2 {
		r.noteTotal(pkt.Total)
		r.slots = max(r.totalTG, 0) * k
	} else if int64(pkt.Total) <= int64(r.cfg.MaxGroups)*int64(r.maxK) {
		r.slots = int(pkt.Total)
	}
}

// wireKH extracts and validates a TG-scoped packet's group parameters.
// Static sessions pin them to the config; adaptive sessions read them from
// the v2 header (a v1 frame carries no h, so the ladder bound is assumed)
// and bound them by the ladder so a hostile header cannot inflate state.
func (r *Receiver) wireKH(pkt *packet.Packet) (k, h int, ok bool) {
	if !r.cfg.AdaptiveFEC {
		if int(pkt.K) != r.cfg.K {
			return 0, 0, false // foreign or misconfigured sender
		}
		return r.cfg.K, r.cfg.MaxParity, true
	}
	k = int(pkt.K)
	h = r.maxH
	if pkt.Vers == packet.V2 {
		h = int(pkt.H)
	}
	if k < 1 || k > r.maxK || h < 0 || h > r.maxH {
		return 0, 0, false
	}
	return k, h, true
}

// shardGroup is the front half DATA, PARITY and NCREPAIR frames share: it
// checks the header against the session's bounds, notes its total and
// returns the frame's group with (k, h) and the codec adopted — or nil when
// the frame is to be ignored: foreign, beyond any transfer this receiver
// would accept, for a finished group, or contradicting what the group
// adopted from an earlier frame.
func (r *Receiver) shardGroup(pkt *packet.Packet) *rxGroup {
	k, h, ok := r.wireKH(pkt)
	if !ok || int64(pkt.Group) >= int64(r.cfg.MaxGroups) {
		return nil
	}
	r.noteHeader(pkt, k)
	if r.released(pkt.Group) {
		return nil
	}
	g := r.group(pkt.Group, k, h)
	if g.done {
		return nil
	}
	if g.k == 0 {
		g.k, g.h = k, h // FIN-created group adopts the negotiated params
		r.setBase(pkt.Group, g)
	} else if g.k != k {
		return nil
	}
	if !r.adoptCodec(g, pkt, k, h) {
		return nil
	}
	return g
}

func (r *Receiver) onShard(pkt *packet.Packet) {
	g := r.shardGroup(pkt)
	if g == nil {
		return
	}
	idx := int(pkt.Seq)
	if idx >= len(g.shards) || idx >= g.k+g.h || len(pkt.Payload) != r.cfg.ShardSize {
		return
	}
	if g.shards[idx] != nil {
		r.stats.DupRx++
		r.m.dupRx.Inc()
		return
	}
	// pkt.Payload aliases the transport's read buffer; keep the one copy.
	shard := r.shardBuf(g, idx)
	copy(shard, pkt.Payload)
	g.shards[idx] = shard
	g.have++
	if idx < 64 {
		g.haveBits |= 1 << uint(idx)
	}
	if !g.sawShard {
		g.sawShard = true
		g.firstAt = r.env.Now()
	}
	if pkt.Type == packet.TypeData {
		r.stats.DataRx++
		r.m.dataRx.Inc()
	} else {
		r.stats.ParityRx++
		r.m.parityRx.Inc()
	}
	if r.groupComplete(g) {
		r.finishGroup(pkt.Group, g)
	}
	r.maybeComplete()
}

// adoptCodec validates a TG-scoped frame's codec identity and fixes it on
// the group at first contact. Unknown codec ids, malformed (id, arg)
// pairs, and frames conflicting with the group's adopted codec are all
// rejected (return false) — a hostile or corrupt header must not flip a
// group's recovery rule mid-flight. v1 frames carry no codec bytes and
// decode as (0, 0) = RS, so static sessions take the first branch
// unchanged.
//
//rmlint:hotpath
func (r *Receiver) adoptCodec(g *rxGroup, pkt *packet.Packet, k, h int) bool {
	id, arg := pkt.Codec, pkt.CodecArg
	if g.codecSet {
		return g.codecID == id && g.codecArg == arg
	}
	switch id {
	case packet.CodecRS:
		if arg != 0 {
			return false
		}
	case packet.CodecRect:
		if int(arg) != h || k+h > 64 {
			return false
		}
		c := r.codecKH(k, h, id, arg)
		if c == nil {
			return false
		}
		g.code = c
	default:
		return false
	}
	g.codecID, g.codecArg, g.codecSet = id, arg, true
	return true
}

// groupComplete is the codec-aware completion rule: MDS codes finish on
// any k shards; non-MDS codes (rect) finish when the shard bitmap shows
// no remaining per-class shortfall.
//
//rmlint:hotpath
func (r *Receiver) groupComplete(g *rxGroup) bool {
	if g.code != nil {
		return g.code.ShortfallBits(g.haveBits) == 0
	}
	return g.have >= g.k
}

// codecKH returns the codec for a group's (k, h, codec id, codec arg): the
// static instance when everything matches the config, else a cached
// per-(rung, codec) instance. A nil codec means the combination is
// unserviceable.
func (r *Receiver) codecKH(k, h int, id, arg uint8) Codec {
	if id == packet.CodecRS && arg == 0 && k == r.cfg.K && h == r.cfg.MaxParity {
		return r.code
	}
	c, err := r.codecs.get(k, h, id, arg)
	if err != nil {
		return nil
	}
	return c
}

func (r *Receiver) finishGroup(idx uint32, g *rxGroup) {
	gk := g.k
	nsh := gk + g.h
	if nsh > len(g.shards) {
		nsh = len(g.shards)
	}
	needsDecode := false
	for i := 0; i < gk; i++ {
		if g.shards[i] == nil {
			needsDecode = true
			break
		}
	}
	if needsDecode {
		code := r.codecKH(gk, g.h, g.codecID, g.codecArg)
		if code == nil {
			return // unserviceable (k,h); the group stays incomplete
		}
		// Hand the codec zero-length buffers for the missing data slots;
		// Reconstruct rebuilds into them in place, so a lost shard lands
		// where a received one would have.
		for i := 0; i < gk; i++ {
			if g.shards[i] == nil {
				g.shards[i] = r.shardBuf(g, i)[:0]
			}
		}
		if err := code.Reconstruct(g.shards[:nsh]); err != nil {
			// Cannot happen with have >= k; undo the fills and stay
			// incomplete.
			for i := 0; i < gk; i++ {
				if s := g.shards[i]; s != nil && len(s) == 0 {
					if !r.inPlace(s, r.msgBuf, g, i) {
						r.shardPool.put(s[:cap(s)])
						r.loose--
					}
					g.shards[i] = nil
				}
			}
			return
		}
		r.stats.Decodes++
		r.m.decodes.Inc()
		parities := 0
		for i := gk; i < nsh; i++ {
			if g.shards[i] != nil {
				parities++
			}
		}
		r.cfg.Trace.Record(metrics.Event{At: r.env.Now(), Kind: TraceDecode, A: uint64(idx), B: uint64(parities)})
	}
	r.putShards(g.shards[gk:nsh]) // the parities have done their work, in every mode
	g.done = true
	r.decoded++
	r.m.groupsDone.Inc()
	if g.sawShard {
		lat := r.env.Now() - g.firstAt
		r.stats.LatencySum += lat
		if lat > r.stats.LatencyMax {
			r.stats.LatencyMax = lat
		}
		r.stats.Groups++
		r.m.recovery.Observe(lat.Seconds())
	}
	if g.nakCancel != nil {
		g.nakCancel()
		g.nakCancel = nil
		g.nakArmed = false
	}
	if r.OnGroup != nil {
		r.OnGroup(idx, g.shards[:gk])
	}
	if r.OnComplete == nil {
		// Streaming mode: the group's data left through OnGroup (or the
		// consumer opted out of data entirely); recycle everything now.
		r.releaseGroup(idx, g)
	}
}

// onPoll implements the paper's feedback rule: compute the deficit l and
// schedule NAK(i,l) in slot [(s-l)Ts, (s-l+1)Ts] — receivers missing more
// answer earlier — unless damped by an equal-or-larger NAK.
func (r *Receiver) onPoll(pkt *packet.Packet) {
	r.stats.PollRx++
	r.m.pollRx.Inc()
	k, h, ok := r.wireKH(pkt)
	if !ok || int64(pkt.Group) >= int64(r.cfg.MaxGroups) {
		return
	}
	r.noteHeader(pkt, k)
	if r.released(pkt.Group) {
		return
	}
	g := r.group(pkt.Group, k, h)
	if g.k == 0 {
		g.k, g.h = k, h
		r.setBase(pkt.Group, g)
	}
	g.heardNak = 0 // new suppression round
	r.armNak(pkt.Group, g, int(pkt.Count))
}

// groupK returns the data-shard count NAK math uses for g: its negotiated
// k, or the ladder's largest k when the group was announced only by a FIN
// (so a fully-lost group is NAKed defensively; the sender clamps).
func (r *Receiver) groupK(g *rxGroup) int {
	if g.k > 0 {
		return g.k
	}
	return r.maxK
}

func (r *Receiver) deficit(g *rxGroup) int {
	if g.done {
		return 0
	}
	if g.code != nil {
		// Non-MDS (rect) groups: the deficit is the per-class shortfall,
		// not k - have — extra parities of an already-covered class do not
		// reduce what the group still needs.
		return g.code.ShortfallBits(g.haveBits)
	}
	l := r.groupK(g) - g.have
	if l < 0 {
		l = 0
	}
	return l
}

func (r *Receiver) armNak(idx uint32, g *rxGroup, roundSize int) {
	l := r.deficit(g)
	if l == 0 {
		return
	}
	slot := roundSize - l
	if slot < 0 {
		slot = 0
	}
	if slot > r.cfg.MaxNakSlots {
		slot = r.cfg.MaxNakSlots
	}
	delay := time.Duration(slot)*r.cfg.Ts +
		time.Duration(r.env.Rand().Int63n(int64(r.cfg.Ts)))
	if g.nakCancel != nil {
		g.nakCancel()
	}
	g.nakArmed = true
	//rmlint:ignore hotpath-alloc NAK timer closure: armed only after loss, never in the loss-free steady state
	g.nakCancel = r.env.After(delay, func() { r.fireNak(idx, g) })
}

//rmlint:hotpath
func (r *Receiver) fireNak(idx uint32, g *rxGroup) {
	if r.closed || g.done {
		return
	}
	g.nakArmed = false
	l := r.deficit(g)
	if l == 0 {
		return
	}
	if g.heardNak >= l {
		// Damped: someone already asked for at least as much. Re-check
		// later in case the repair round is lost.
		r.stats.NakSupp++
		r.m.nakSupp.Inc()
	} else {
		nak := packet.Packet{
			Type:    packet.TypeNak,
			Session: r.cfg.Session,
			Group:   idx,
			K:       uint16(r.groupK(g)),
			Count:   uint16(l),
		}
		var lossMap [packet.NcMaskLen]byte
		if r.cfg.NCRepair && g.k > 0 && g.k+g.h <= 64 {
			// NC opt-in: report WHICH data seqs are missing, not just how
			// many, so the sender can retransmit exact XOR combinations.
			binary.BigEndian.PutUint64(lossMap[:], (uint64(1)<<uint(g.k)-1)&^g.haveBits)
			nak.Payload = lossMap[:]
		}
		frame := r.ctrlFrames.get(nak.EncodedLen())
		if _, err := nak.MarshalTo(frame); err == nil {
			r.env.MulticastControl(frame) //nolint:errcheck // best-effort
		}
		r.ctrlFrames.put(frame)
		r.stats.NakTx++
		r.m.nakSent.Inc()
		r.cfg.Trace.Record(metrics.Event{At: r.env.Now(), Kind: TraceNakTx, A: uint64(idx), B: uint64(l)})
	}
	// Retry with linear backoff while the group stays incomplete.
	g.retryCount++
	backoff := r.cfg.RetryBase * time.Duration(min(g.retryCount, 8))
	g.heardNak = 0
	g.nakArmed = true
	//rmlint:ignore hotpath-alloc NAK retry closure: runs only while a group stays incomplete after loss
	g.nakCancel = r.env.After(backoff, func() { r.fireNak(idx, g) })
}

// onNcRepair applies one network-coded repair combo (wire v2 only): the
// payload is an 8-byte mask of data seqs followed by their XOR. A combo
// is useful exactly when this receiver misses ONE member: XORing out the
// held members leaves the missing shard. Combos whose members are all
// held are duplicates (the repair was for other receivers' losses);
// combos covering 2+ local losses are undecodable here and only counted
// — the next POLL's NAK re-reports the loss map and the sender re-plans.
func (r *Receiver) onNcRepair(pkt *packet.Packet) {
	if len(pkt.Payload) != packet.NcMaskLen+r.cfg.ShardSize || pkt.K > 63 {
		return
	}
	g := r.shardGroup(pkt)
	if g == nil {
		return
	}
	mask := binary.BigEndian.Uint64(pkt.Payload) & (uint64(1)<<uint(g.k) - 1)
	if mask == 0 {
		return
	}
	r.stats.NcRx++
	missing, missIdx := 0, 0
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= uint64(1) << uint(i)
		if g.shards[i] == nil {
			missing++
			missIdx = i
		}
	}
	switch {
	case missing == 0:
		r.stats.DupRx++
		r.m.ncDup.Inc()
		return
	case missing > 1:
		r.m.ncUnusable.Inc()
		return
	}
	shard := r.shardBuf(g, missIdx)
	copy(shard, pkt.Payload[packet.NcMaskLen:])
	for m := mask &^ (uint64(1) << uint(missIdx)); m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= uint64(1) << uint(i)
		gf256.AddSlice(g.shards[i], shard)
	}
	g.shards[missIdx] = shard
	g.have++
	g.haveBits |= uint64(1) << uint(missIdx)
	if !g.sawShard {
		g.sawShard = true
		g.firstAt = r.env.Now()
	}
	r.stats.NcRepaired++
	r.m.ncRepair.Inc()
	if r.groupComplete(g) {
		r.finishGroup(pkt.Group, g)
	}
	r.maybeComplete()
}

// onNak handles another receiver's NAK for damping: hearing NAK(i,m) with
// m >= own deficit suppresses the own pending NAK for that round.
func (r *Receiver) onNak(pkt *packet.Packet) {
	g, ok := r.groups[pkt.Group]
	if !ok || g.done {
		return
	}
	if int(pkt.Count) > g.heardNak {
		g.heardNak = int(pkt.Count)
	}
}

func (r *Receiver) onFin(pkt *packet.Packet) {
	r.noteTotal(pkt.Total)
	if len(pkt.Payload) >= 8 {
		r.msgLen = binary.BigEndian.Uint64(pkt.Payload)
		r.sawFin = true
	}
	if r.totalTG < 0 {
		return
	}
	// The FIN doubles as a poll for every unfinished group, including
	// groups we never saw a single packet of. Adaptive sessions create
	// those with unknown parameters (k = 0): state is sized to the ladder
	// bounds until a shard announces the group's true (k, h).
	fk, fh := r.cfg.K, r.cfg.MaxParity
	if r.cfg.AdaptiveFEC {
		fk, fh = 0, 0
	}
	for i := 0; i < r.totalTG; i++ {
		if r.released(uint32(i)) {
			continue
		}
		g := r.group(uint32(i), fk, fh)
		if !g.done && !g.nakArmed {
			r.armNak(uint32(i), g, r.groupK(g))
		}
	}
	r.maybeComplete()
}

func (r *Receiver) maybeComplete() {
	if r.complete || !r.sawFin || r.totalTG < 0 || r.decoded < r.totalTG {
		return
	}
	if r.OnComplete == nil {
		// Streaming mode: every group already left through OnGroup and was
		// recycled; there is nothing to assemble.
		r.complete = true
		r.stats.Reassembly = 1
		r.m.deliveries.Inc()
		r.cfg.Trace.Record(metrics.Event{At: r.env.Now(), Kind: TraceDeliver, A: uint64(r.totalTG), B: r.msgLen})
		r.Close()
		return
	}
	// Gather: place if you can, gather what you couldn't. The FIN's msgLen
	// is believed only up to the shards actually held, and the buffer grows
	// only to the shards the message reaches into.
	ss := r.cfg.ShardSize
	total := 0
	for i := 0; i < r.totalTG; i++ {
		g := r.groups[uint32(i)]
		if g == nil || !g.done {
			return // groups outside [0, totalTG) made up the count
		}
		total += g.k * ss
	}
	if uint64(total) < r.msgLen {
		return // inconsistent sender; refuse to deliver short data
	}
	need := (int(r.msgLen) + ss - 1) / ss * ss
	if r.msgBuf == nil || len(r.msgBuf) < need {
		r.grow(need) // even by nothing: the empty message is delivered non-nil
	}
	// With every data shard in place the buffer already is the message;
	// else copy in the pooled ones it reaches into.
	if r.loose > 0 {
		for i, off := uint32(0), 0; off < need; i++ {
			g := r.groups[i]
			for j := 0; j < g.k && off < need; j, off = j+1, off+ss {
				if s := g.shards[j]; !r.inPlace(s, r.msgBuf, g, j) {
					copy(r.msgBuf[off:], s)
					r.gathers++
				}
			}
		}
	}
	msg := r.msgBuf[:r.msgLen]
	r.msgBuf = nil
	r.complete = true
	r.stats.Reassembly = 1
	r.m.deliveries.Inc()
	r.cfg.Trace.Record(metrics.Event{At: r.env.Now(), Kind: TraceDeliver, A: uint64(r.totalTG), B: r.msgLen})
	r.Close()
	if r.OnComplete != nil {
		r.OnComplete(msg)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
