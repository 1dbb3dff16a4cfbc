package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
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
	PollRx     int // POLLs admitted
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
// payload byte once: packets are decoded in place (packet.DecodeInto) and a
// data shard is copied or rebuilt straight into its final offset of the
// message buffer (shardBuf). A group's bookkeeping lives in a chunk of 64
// groups (rxChunk), allocated when the first of them is seen.
type Receiver struct {
	env Env
	cfg Config
	rx  RxRules // admission, adoption, deficit, NC and NAK rules, shared with internal/field

	msgLen   uint64 // valid once a FIN arrived
	sawFin   bool
	decoded  int
	complete bool
	closed   bool

	// dir is the group table: group idx is dir[idx>>chunkShift].g[idx&63];
	// nil = no group of that chunk created yet.
	dir []*rxChunk

	// msgBuf is the message under reassembly, committed in steps (commit):
	// data shard seq of group g is message shard g.base+seq and lives at
	// offset(g, seq) once the buffer covers it. slots is how many message
	// shards the sender declared (noteHeader), the most the buffer is ever
	// committed for; 0 until declared. Groups [0, frontG) of an adaptive
	// session have their base, frontBase being the next one.
	msgBuf    []byte
	slots     int
	frontG    uint32
	frontBase int
	firstStep int // firstCommit; tests shrink it to reach the later steps
	loose     int // data shards taken from the pool, not placed in msgBuf; 0 = nothing to gather
	looseMin  int // while loose > 0: the lowest message shard index among them, 0 if one had no base
	gathers   int // shards the delivery gather had to copy into msgBuf

	shardPool bufPool // recycled shard buffers (ShardSize each)

	// arq marks an N2 receiver (NewReceiverN2), which no POLL reaches: a
	// frame for a group at or past nextGap NAKs the unseen groups before it.
	arq     bool
	nextGap uint32

	// OnComplete is invoked exactly once with the reassembled message; the
	// slice is the callee's to keep (the receiver never touches it again).
	// Left nil, the message is still reassembled, and its delivery shows
	// only through Complete, Stats and the delivery trace/metrics.
	OnComplete func(msg []byte)

	stats ReceiverStats
	m     receiverMetrics
}

type rxGroup struct {
	RxParams            // (k, h, codec); K = 0 while unknown (group seen only via FIN)
	shards     [][]byte // len >= K+H; nil = not received
	base       int      // message shard index of data shard 0; -1 while unknown (setBase)
	have       int      // shards present
	firstAt    time.Duration
	sawShard   bool
	done       bool
	nakCancel  func()
	nakArmed   bool
	heardNak   int // largest deficit heard from another receiver this round
	retryCount int

	// haveBits tracks present shards i < 64 (complete for any group with
	// k+h <= 64): the rect deficit rule and the NC loss maps read it.
	haveBits uint64
}

// chunkShift: the receiver keeps its groups in chunks of 1<<chunkShift
// consecutive indices.
const chunkShift = 6

// rxChunk is the bookkeeping of 64 consecutive groups. made marks the
// groups created. Their shard tables are cut from tab, of which tab[:cut]
// is handed out.
type rxChunk struct {
	g    [1 << chunkShift]rxGroup
	made uint64
	tab  [][]byte
	cut  int
}

// NewReceiver creates an NP receiver. cfg must agree with the sender's on
// Session, K, MaxParity and ShardSize.
func NewReceiver(env Env, cfg Config) (*Receiver, error) {
	cfg.Defaults()
	return newReceiver(env, cfg, false)
}

// NewReceiverN2 creates a receiver for NewSenderN2's sessions: the NP
// receiver at N2's working point, which NAKs the sequence gaps it sees.
// cfg must agree with the sender's on Session and ShardSize.
func NewReceiverN2(env Env, cfg Config) (*Receiver, error) {
	cfg.Defaults()
	cfg.pinN2()
	return newReceiver(env, cfg, true)
}

func newReceiver(env Env, cfg Config, arq bool) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rx := NewRxRules(env, cfg, math.MaxInt) // shard buffers hold any k+h the ladder allows
	// Building the config's working point reports a config the codec layer
	// refuses (GF(2^16) with an odd ShardSize) as an error, as NewSender does.
	if _, err := rx.codecs.get(cfg.K, cfg.MaxParity, packet.CodecRS, 0); err != nil {
		return nil, err
	}
	return &Receiver{
		env:       env,
		cfg:       cfg,
		rx:        rx,
		arq:       arq,
		firstStep: firstCommit,
		shardPool: bufPool{minCap: cfg.ShardSize},
		m:         newReceiverMetrics(cfg.Metrics),
	}, nil
}

// Stats returns a snapshot of the receiver's counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Complete reports whether the full message has been delivered.
func (r *Receiver) Complete() bool { return r.complete }

// Close stops the receiver and cancels pending NAK timers.
func (r *Receiver) Close() {
	r.closed = true
	r.live(func(_ uint32, g *rxGroup) {
		if g.nakCancel != nil {
			g.nakCancel()
		}
	})
}

// live calls f on every group created, in index order.
func (r *Receiver) live(f func(idx uint32, g *rxGroup)) {
	for w, c := range r.dir {
		if c == nil {
			continue
		}
		for m := c.made; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			f(uint32(w<<chunkShift|i), &c.g[i])
		}
	}
}

// held returns group idx's bookkeeping, or nil if the group was never
// created.
func (r *Receiver) held(idx uint32) *rxGroup {
	if w := int(idx >> chunkShift); w < len(r.dir) {
		if c := r.dir[w]; c != nil && c.made&(1<<(idx&63)) != 0 {
			return &c.g[idx&63]
		}
	}
	return nil
}

// group returns the bookkeeping for TG idx, creating it with the given
// parameters when first seen. k = 0 means the parameters are unknown yet (a
// group announced only by a FIN): state is sized to the ladder's bounds
// and the true (k, h) is adopted from the group's first frame.
func (r *Receiver) group(idx uint32, k, h int) *rxGroup {
	if g := r.held(idx); g != nil {
		return g
	}
	w, i := int(idx>>chunkShift), int(idx&63)
	if w >= len(r.dir) {
		// Sized for the whole transfer once its size is known — the FIN's
		// group count, or the groups the announced shards fill at the
		// largest k — so the steady state never grows it.
		total := max(r.rx.total, (r.slots+r.rx.maxK-1)/r.rx.maxK)
		// directory grows once to the group count, amortized before it is known
		r.dir = append(r.dir, make([]*rxChunk, max(w+1, (total+63)>>chunkShift)-len(r.dir))...)
	}
	c := r.dir[w]
	if c == nil {
		// one chunk per 64 groups
		c = new(rxChunk)
		r.dir[w] = c
	}
	n := k + h
	if k == 0 {
		n = r.rx.maxK + r.rx.maxH
	}
	if c.cut+n > len(c.tab) {
		// one array for the chunk's shard tables, sized for the groups it
		// has left at this k+h; re-cut only when a group needs more
		c.tab, c.cut = make([][]byte, (1<<chunkShift-bits.OnesCount64(c.made))*n), 0
	}
	g := &c.g[i]
	*g = rxGroup{RxParams: RxParams{K: k, H: h}, shards: c.tab[c.cut : c.cut+n : c.cut+n], base: -1}
	c.cut += n
	c.made |= 1 << i
	r.setBase(idx, g)
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
	for ; g != nil && g.K > 0; g = r.held(r.frontG) {
		g.base = r.frontBase
		r.frontBase += g.K
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

// firstCommit is the first step of the message-buffer commit rule.
const firstCommit = 64 << 20

// offset is where data shard seq of g sits in msgBuf, given g's base.
func (r *Receiver) offset(g *rxGroup, seq int) int {
	return (g.base + seq) * r.cfg.ShardSize
}

// shardBuf returns the buffer shard seq of g is received or rebuilt into:
// its final slot in the message buffer if it can be placed, else a pooled
// buffer, which the delivery gather copies into place. Not placeable:
// parities, a group whose base is not known yet, shards past the declared
// count (none declared yet, or the tail group's all-padding shards), and
// slots the commit rule keeps out of the buffer.
func (r *Receiver) shardBuf(g *rxGroup, seq int) []byte {
	ss := r.cfg.ShardSize
	if seq < g.K {
		if g.base >= 0 && g.base+seq < r.slots {
			if off := r.offset(g, seq); off+ss <= len(r.msgBuf) || r.commit(off+ss) {
				return r.msgBuf[off : off+ss : off+ss]
			}
		}
		slot := g.base + seq
		if g.base < 0 {
			slot = 0 // no base yet: it may belong anywhere
		}
		if r.loose == 0 || slot < r.looseMin {
			r.looseMin = slot
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
	// message buffer commit: at most log4(size/firstCommit)+1 steps per session
	r.msgBuf = newMsgBuf(size)
	copy(r.msgBuf, old)
	r.live(func(_ uint32, g *rxGroup) {
		for j := 0; j < g.K; j++ {
			if s := g.shards[j]; r.inPlace(s, old, g, j) {
				off := r.offset(g, j)
				g.shards[j] = r.msgBuf[off : off+len(s) : off+r.cfg.ShardSize]
			}
		}
	})
}

// HandlePacket feeds an incoming wire packet to the engine. The buffer is
// only read during the call; the engine keeps copies of what it retains,
// so transports may hand the same read buffer to every invocation.
func (r *Receiver) HandlePacket(wire []byte) {
	if r.closed || r.complete {
		return
	}
	var pkt packet.Packet
	if err := packet.DecodeInto(&pkt, wire); err != nil || pkt.Session != r.cfg.Session {
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

// noteHeader notes how many message shards a TG-scoped header announces
// (0 = unannounced). The first announcement stands.
func (r *Receiver) noteHeader(pkt *packet.Packet) {
	if r.slots == 0 && int64(pkt.Total) <= int64(r.cfg.MaxGroups)*int64(r.rx.maxK) {
		r.slots = int(pkt.Total)
	}
}

// tgGroup is the front half every TG-scoped frame shares: RxRules admits
// the header, and the frame's group comes back with its parameters
// adopted — or nil when the frame is to be ignored: refused by the rules,
// or for a group already finished.
func (r *Receiver) tgGroup(pkt *packet.Packet) *rxGroup {
	k, h, ok := r.rx.Header(pkt)
	if !ok {
		return nil
	}
	r.noteHeader(pkt)
	g := r.group(pkt.Group, k, h)
	if g.done {
		return nil
	}
	fresh := g.K == 0
	ok = r.rx.Admit(&g.RxParams, pkt, k, h)
	if fresh {
		r.setBase(pkt.Group, g) // a FIN-created group just adopted its k
	}
	if !ok {
		return nil
	}
	return g
}

func (r *Receiver) onShard(pkt *packet.Packet) {
	g := r.tgGroup(pkt)
	if g == nil {
		return
	}
	idx := int(pkt.Seq)
	if g.shards[idx] != nil {
		r.stats.DupRx++
		r.m.dupRx.Inc()
		return
	}
	if r.arq {
		r.armGaps(pkt.Group)
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
	if r.rx.Complete(&g.RxParams, g.have, g.haveBits) {
		r.finishGroup(pkt.Group, g)
	}
	r.maybeComplete()
}

func (r *Receiver) finishGroup(idx uint32, g *rxGroup) {
	gk := g.K
	nsh := gk + g.H // a table holds k+h shards, or more if the FIN created it
	if slices.ContainsFunc(g.shards[:gk], func(s []byte) bool { return s == nil }) {
		code, err := r.rx.codecs.get(gk, g.H, g.codecID, g.codecArg)
		if err != nil {
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
	r.putShards(g.shards[gk:nsh]) // the parities have done their work
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
}

// onPoll implements the paper's feedback rule: compute the deficit l and
// schedule NAK(i,l) in its RxRules.SlotDelay slot — slot s − l under the
// slot span s the POLL states, with s at most MaxNakSlots, so receivers
// missing more answer earlier — unless damped by an equal-or-larger NAK. A POLL opens a new
// round, so the NAK backoff starts over from its first step.
func (r *Receiver) onPoll(pkt *packet.Packet) {
	g := r.tgGroup(pkt)
	if g == nil {
		return
	}
	r.stats.PollRx++
	r.m.pollRx.Inc()
	g.heardNak = 0 // new suppression round
	g.retryCount = 0
	r.armNak(pkt.Group, g, int(pkt.Count))
}

// deficit is g's deficit l under RxRules.Deficit; 0 once decoded.
func (r *Receiver) deficit(g *rxGroup) int {
	if g.done {
		return 0
	}
	return r.rx.Deficit(&g.RxParams, g.have, g.haveBits)
}

func (r *Receiver) armNak(idx uint32, g *rxGroup, roundSize int) {
	l := r.deficit(g)
	if l == 0 {
		return
	}
	delay := r.rx.SlotDelay(roundSize, l) +
		time.Duration(r.env.Rand().Int63n(int64(r.cfg.Ts)))
	if g.nakCancel != nil {
		g.nakCancel()
	}
	g.nakArmed = true
	// NAK timer closure: armed only after loss, never in the loss-free steady state
	g.nakCancel = r.env.After(delay, func() { r.fireNak(idx, g, false) })
}

// armGaps is N2's loss detection: a frame for group idx at or past nextGap
// shows that the unseen groups before it were lost, and each gets a NAK in
// slot SlotDelay(2, 1) — one Ts out, past the airtime of a layered FEC
// group whose parities may still rebuild it. Only groups below the
// announced shard count are armed: a forged frame near MaxGroups must not
// buy a timer per group.
func (r *Receiver) armGaps(idx uint32) {
	if idx < r.nextGap || int64(idx) >= int64(r.slots) {
		return
	}
	for m := r.nextGap; m < idx; m++ {
		if g := r.group(m, 0, 0); !g.done && !g.nakArmed {
			r.armNak(m, g, 2)
		}
	}
	r.nextGap = idx + 1
}

// fireNak is g's NAK timer: the slot timer a POLL or the FIN armed, or
// (retry) the backoff timer it re-arms while the group stays incomplete.
func (r *Receiver) fireNak(idx uint32, g *rxGroup, retry bool) {
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
		r.rx.Nak(idx, &g.RxParams, l, g.haveBits, retry)
		r.stats.NakTx++
		r.m.nakSent.Inc()
	}
	g.retryCount++
	g.heardNak = 0
	g.nakArmed = true
	// NAK retry closure: runs only while a group stays incomplete after loss
	g.nakCancel = r.env.After(r.rx.Backoff(g.retryCount), func() { r.fireNak(idx, g, true) })
}

// onNcRepair applies one network-coded repair combo: the payload is an
// 8-byte mask of data seqs followed by their XOR, and NcRepairs names the
// one member it repairs here, if any. Combos whose members are all held
// are duplicates (the repair was for other receivers' losses); combos
// covering 2+ local losses are only counted.
func (r *Receiver) onNcRepair(pkt *packet.Packet) {
	g := r.tgGroup(pkt)
	if g == nil {
		return
	}
	mask := g.NcMask(pkt)
	if mask == 0 {
		return
	}
	r.stats.NcRx++
	bit := NcRepairs(mask, ^g.haveBits)
	switch {
	case mask&^g.haveBits == 0:
		r.stats.DupRx++
		r.m.ncDup.Inc()
		return
	case bit == 0:
		r.m.ncUnusable.Inc()
		return
	}
	missIdx := bits.TrailingZeros64(bit)
	shard := r.shardBuf(g, missIdx)
	copy(shard, pkt.Payload[packet.NcMaskLen:])
	for m := mask &^ bit; m != 0; m &= m - 1 {
		gf256.AddSlice(g.shards[bits.TrailingZeros64(m)], shard)
	}
	g.shards[missIdx] = shard
	g.have++
	g.haveBits |= bit
	if !g.sawShard {
		g.sawShard = true
		g.firstAt = r.env.Now()
	}
	r.stats.NcRepaired++
	r.m.ncRepair.Inc()
	if r.rx.Complete(&g.RxParams, g.have, g.haveBits) {
		r.finishGroup(pkt.Group, g)
	}
	r.maybeComplete()
}

// onNak handles another receiver's NAK for damping: hearing NAK(i,m) with
// m >= own deficit suppresses the own pending NAK for that round.
func (r *Receiver) onNak(pkt *packet.Packet) {
	g := r.held(pkt.Group)
	if g == nil || g.done {
		return
	}
	if int(pkt.Count) > g.heardNak {
		g.heardNak = int(pkt.Count)
	}
}

func (r *Receiver) onFin(pkt *packet.Packet) {
	if !r.rx.Fin(pkt) {
		return
	}
	if len(pkt.Payload) >= 8 {
		r.msgLen = binary.BigEndian.Uint64(pkt.Payload)
		r.sawFin = true
	}
	// The FIN doubles as a poll for every unfinished group, including
	// groups we never saw a single packet of. Those are created with
	// unknown parameters (k = 0): state is sized to the ladder bounds
	// until a frame announces the group's (k, h).
	for i := 0; i < r.rx.total; i++ {
		if g := r.group(uint32(i), 0, 0); !g.done && !g.nakArmed {
			r.armNak(uint32(i), g, r.rx.GroupK(&g.RxParams))
		}
	}
	r.maybeComplete()
}

func (r *Receiver) maybeComplete() {
	total := r.rx.total
	if r.complete || !r.sawFin || total < 0 || r.decoded < total {
		return
	}
	// Gather: place if you can, gather what you couldn't. The FIN's msgLen
	// is believed only up to the shards actually held, and the buffer grows
	// only to the shards the message reaches into.
	ss := r.cfg.ShardSize
	held := 0
	for i := 0; i < total; i++ {
		g := r.held(uint32(i))
		if g == nil || !g.done {
			return // groups outside [0, total) made up the count
		}
		held += g.K * ss
	}
	if uint64(held) < r.msgLen {
		return // inconsistent sender; refuse to deliver short data
	}
	need := (int(r.msgLen) + ss - 1) / ss * ss
	if r.msgBuf == nil || len(r.msgBuf) < need {
		r.grow(need) // even by nothing: the empty message is delivered non-nil
	}
	// With every data shard it reaches in place the buffer already is the
	// message — the tail group's padding, pooled past the announced shard
	// count, is not needed; else copy in the pooled ones it reaches into.
	if r.loose > 0 && r.looseMin*ss < need {
		for i, off := uint32(0), 0; off < need; i++ {
			g := r.held(i)
			for j := 0; j < g.K && off < need; j, off = j+1, off+ss {
				if s := g.shards[j]; !r.inPlace(s, r.msgBuf, g, j) {
					copy(r.msgBuf[off:], s)
					r.gathers++
				}
			}
		}
	}
	msg := r.msgBuf[:r.msgLen:r.msgLen] // the tail past msgLen was never written
	r.msgBuf = nil
	r.complete = true
	r.stats.Reassembly = 1
	r.m.deliveries.Inc()
	r.cfg.Trace.Record(metrics.Event{At: r.env.Now(), Kind: TraceDeliver, A: uint64(total), B: r.msgLen})
	r.Close()
	if r.OnComplete != nil {
		r.OnComplete(msg)
	}
}
