package core

import (
	"encoding/binary"
	"time"

	"rmfec/internal/metrics"
	"rmfec/internal/packet"
)

// RxRules is the receiver contract of paper §5.1 as both receive engines
// apply it — Receiver, and internal/field's struct-of-arrays population:
// which frames are admitted, what (k, h, codec) a group adopts from them,
// what a group still needs (its deficit l), what an NC combo repairs, in
// which slot a NAK fires and what it carries. Both engines ask these
// methods and decide none of it themselves, so the field's Exact mode
// matches R receivers by construction. Alongside the rules it keeps what
// both engines learn from the wire for the whole session — the group
// count — and the codec cache and NAK frame they share.
type RxRules struct {
	env        Env
	cfg        Config
	maxK, maxH int // per-group (k, h) bounds: the ladder's, or the static config
	maxN       int // largest k+h the engine's per-group state tracks
	codecs     codecCache
	total      int    // the transfer's group count; -1 until noted
	nak        []byte // the one NAK frame, marshalled anew for every NAK
}

// RxParams is one group's parameters as its frames established them: the
// data-shard count K (0 while unknown — a group the FIN announced before
// any of its frames), the parity budget H, and the repair code. Code is
// nil for the MDS (Reed-Solomon) codes; a non-MDS code (rect) brings its
// own per-class shortfall rule. Once set, only RxRules.Admit changes them.
type RxParams struct {
	K, H     int
	Code     Codec
	codecID  uint8 // the codec identity of the group's headers; 0/0 = RS
	codecArg uint8
	codecSet bool   // fixed at the group's first data-plane frame
	poll     uint16 // Seq of the latest POLL admitted for the group, which a NAK echoes
}

// noEcho is the Seq of a NAK that answers no POLL: the backoff retry's. The
// sender serves it against its queued repairs alone, so a NAK it has
// under-served, or whose POLL was lost, is always asked again in full.
const noEcho = 0xFFFF

// NewRxRules returns the receive rules of a session whose cfg is defaulted
// and validated. maxN bounds the k+h of any group admitted: the most
// shards the engine's per-group state can track.
func NewRxRules(env Env, cfg Config, maxN int) RxRules {
	rr := RxRules{
		env: env, cfg: cfg, maxK: cfg.K, maxH: cfg.MaxParity, maxN: maxN,
		codecs: newCodecCache(cfg.ShardSize, cfg.Metrics),
		total:  -1,
		nak:    make([]byte, packet.HeaderLen+packet.NcMaskLen),
	}
	if cfg.AdaptiveFEC {
		rr.maxK, rr.maxH = cfg.Adapt.MaxKH()
	}
	return rr
}

// Header admits a TG-scoped frame (DATA, PARITY, NCREPAIR, POLL) on what
// its header and length state, and returns the (k, h) it states for its
// group. Refused (ok = false): a payload other than the frame type's, a
// group at or past MaxGroups, a static session's frame at any working point
// (k, h, codec) but the config's own — a foreign, misconfigured or
// renegotiating sender's — and an adaptive frame whose (k, h) lies outside
// the ladder or beyond the k+h the engine tracks: a hostile header must not
// inflate state.
func (rr *RxRules) Header(pkt *packet.Packet) (k, h int, ok bool) {
	switch pkt.Type {
	case packet.TypeData, packet.TypeParity:
		if len(pkt.Payload) != rr.cfg.ShardSize {
			return 0, 0, false
		}
	case packet.TypeNcRepair:
		if len(pkt.Payload) != packet.NcMaskLen+rr.cfg.ShardSize || pkt.K > 63 {
			return 0, 0, false
		}
	}
	if int64(pkt.Group) >= int64(rr.cfg.MaxGroups) {
		return 0, 0, false
	}
	k, h = int(pkt.K), int(pkt.H)
	if !rr.cfg.AdaptiveFEC {
		ok = k == rr.cfg.K && h == rr.cfg.MaxParity && pkt.Codec == packet.CodecRS && pkt.CodecArg == 0
	} else {
		ok = k >= 1 && k <= rr.maxK && h <= rr.maxH && k+h <= rr.maxN
	}
	return k, h, ok
}

// Fin admits a FIN and notes the transfer's group count from its Total: the
// first statement stands, 0 states nothing and a count past MaxGroups is
// not believed. A static session admits only a FIN that states the
// config's K and H. A renegotiating sender's FIN states H = 0 at its
// ladder's initial k. Of the static configs only N2's (K = 1) has H = 0,
// so unless a ladder starts at k = 1 a receiver never NAKs the groups of
// a session whose frames it refuses.
func (rr *RxRules) Fin(pkt *packet.Packet) bool {
	if !rr.cfg.AdaptiveFEC && (int(pkt.K) != rr.cfg.K || int(pkt.H) != rr.cfg.MaxParity) {
		return false
	}
	if pkt.Total > 0 && rr.total < 0 && int64(pkt.Total) <= int64(rr.cfg.MaxGroups) {
		rr.total = int(pkt.Total)
	}
	return true
}

// TotalTG returns the transfer's group count, or -1 before it is noted.
func (rr *RxRules) TotalTG() int { return rr.total }

// Admit applies a frame Header admitted, with the (k, h) it returned, to
// its group's parameters p, and reports whether the frame belongs to the
// group as p stands. A group that does not know its k yet adopts the
// frame's (k, h); a frame stating another k is refused. A POLL asks no
// more; its Seq is what the group's next NAK echoes. A data-plane frame
// (DATA, PARITY, NCREPAIR) must also carry the codec the group adopted at
// its first such frame — a known one, well-formed for (k, h), fixed then: a
// hostile or corrupt header must not flip a group's recovery rule
// mid-flight — and a shard index inside the group's k+h.
func (rr *RxRules) Admit(p *RxParams, pkt *packet.Packet, k, h int) bool {
	if p.K == 0 {
		p.K, p.H = k, h
	} else if p.K != k {
		return false
	}
	if pkt.Type == packet.TypePoll {
		p.poll = pkt.Seq
		return true
	}
	if !p.codecSet && !rr.adoptCodec(p, pkt.Codec, pkt.CodecArg, k, h) {
		return false
	}
	if p.codecID != pkt.Codec || p.codecArg != pkt.CodecArg {
		return false
	}
	return pkt.Type == packet.TypeNcRepair || int(pkt.Seq) < p.K+p.H
}

// adoptCodec fixes a group's codec at its first data-plane frame, if the
// (id, arg) pair names one for (k, h).
func (rr *RxRules) adoptCodec(p *RxParams, id, arg uint8, k, h int) bool {
	switch id {
	case packet.CodecRS:
		if arg != 0 {
			return false
		}
	case packet.CodecRect:
		if int(arg) != h || k+h > 64 {
			return false // the per-class rule reads a 64-shard bitmap
		}
		c, err := rr.codecs.get(k, h, id, arg)
		if err != nil {
			return false
		}
		p.Code = c
	default:
		return false
	}
	p.codecID, p.codecArg, p.codecSet = id, arg, true
	return true
}

// GroupK returns the data-shard count NAK math uses for a group: its k, or
// the ladder's largest when only the FIN announced it (so a fully-lost
// group is NAKed defensively; the sender clamps).
func (rr *RxRules) GroupK(p *RxParams) int {
	if p.K > 0 {
		return p.K
	}
	return rr.maxK
}

// Deficit is the deficit rule: how many more shards a receiver holding
// have of a group's shards — those set in held, for shards i < 64 — needs
// to recover it. An MDS code needs any k, so l = k − have; a non-MDS code
// (rect) needs its per-class shortfall, which extra parities of an
// already covered class do not reduce.
func (rr *RxRules) Deficit(p *RxParams, have int, held uint64) int {
	if p.Code != nil {
		return p.Code.ShortfallBits(held)
	}
	return max(rr.GroupK(p)-have, 0)
}

// Complete reports whether the Deficit of an admitted group is 0. No code
// rebuilds k data shards from fewer than k, so below k the rule is not
// asked: the receiver's per-shard test stays one comparison.
func (rr *RxRules) Complete(p *RxParams, have int, held uint64) bool {
	return have >= p.K && rr.Deficit(p, have, held) == 0
}

// NcMask returns the data seqs an admitted NCREPAIR frame combines, within
// the group's k; a combo of none (0) is ignored.
func (p *RxParams) NcMask(pkt *packet.Packet) uint64 {
	return binary.BigEndian.Uint64(pkt.Payload) & (uint64(1)<<uint(p.K) - 1)
}

// NcRepairs is the NC-combo rule (Qureshi/Foh/Cai): a combo over mask
// repairs a receiver that misses exactly one of its members, which XORing
// out the held ones leaves. Given the receiver's missing seqs it returns
// that member's bit, or 0: every member held (a duplicate), or two or more
// missing (undecodable here — the next NAK's loss map re-reports them).
func NcRepairs(mask, missing uint64) uint64 {
	m := mask & missing
	if m&(m-1) != 0 {
		return 0
	}
	return m
}

// SlotDelay is the NAK slot of §5.1 for deficit l under a slot span of s:
// slot s − l, so receivers missing more answer earlier and damp the rest,
// each slot Ts wide. s is the span the POLL states in Count — its round
// size until the sender hears a NAK, then at most one past the largest
// deficit heard — the group's k when the FIN arms the timer, or 2 for
// N2's gap NAK (Receiver.armGaps). A span
// larger than MaxNakSlots counts as MaxNakSlots, so the slot stays below
// that bound and deficits 1 … MaxNakSlots still get one slot each, largest
// first; a deficit at or past the span takes slot 0. The engine adds its
// jitter within the slot.
func (rr *RxRules) SlotDelay(s, l int) time.Duration {
	return time.Duration(max(min(s, rr.cfg.MaxNakSlots)-l, 0)) * rr.cfg.Ts
}

// Backoff is the delay before a group's NAK timer fires again after its
// n-th firing since the group's latest POLL left the group incomplete:
// linear in n, at most 8 RetryBase.
func (rr *RxRules) Backoff(n int) time.Duration {
	return rr.cfg.RetryBase * time.Duration(min(n, 8))
}

// Nak multicasts NAK(idx, l) for a group with parameters p: the deficit l
// in Count, the group's k in K. Seq echoes the latest POLL heard for the
// group — the repairs the sender had queued for it by then, so it can tell
// a NAK that raced an earlier one for the same round — unless the NAK is
// the backoff retry's (retry), which carries noEcho. With NC repair on, a
// group whose shards fit the bitmap also reports which data seqs are
// missing — those not in held — so the sender can retransmit exact XOR
// combinations.
func (rr *RxRules) Nak(idx uint32, p *RxParams, l int, held uint64, retry bool) {
	nak := packet.Packet{
		Type:    packet.TypeNak,
		Session: rr.cfg.Session,
		Group:   idx,
		Seq:     p.poll,
		K:       uint16(rr.GroupK(p)),
		Count:   uint16(l),
	}
	if retry {
		nak.Seq = noEcho
	}
	var lossMap [packet.NcMaskLen]byte
	if rr.cfg.NCRepair && p.K > 0 && p.K+p.H <= 64 {
		binary.BigEndian.PutUint64(lossMap[:], (uint64(1)<<uint(p.K)-1)&^held)
		nak.Payload = lossMap[:]
	}
	if n, err := nak.MarshalTo(rr.nak); err == nil {
		rr.env.MulticastControl(rr.nak[:n]) //nolint:errcheck // best-effort
	}
	rr.cfg.Trace.Record(metrics.Event{At: rr.env.Now(), Kind: TraceNakTx, A: uint64(idx), B: uint64(l)})
}
