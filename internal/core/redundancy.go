package core

import (
	"math"

	"rmfec/internal/adapt"
)

// redundancy is everything that differs between the sender's modes once
// they share one cutting path: the working point groups are cut at and the
// number of parities that accompany each group's first round. The sender
// asks it once per group and feeds it every NAK deficit.
type redundancy interface {
	// era is the working point the unstreamed remainder is cut at: k, h,
	// the requested codec, and A, the steady proactive level the
	// encode-ahead window is sized to.
	era() adapt.Params
	// next is asked just before a group is streamed, with the groups
	// streamed so far: how many parities join its first round, and whether
	// era() moved since the previous group — a renegotiation, on which the
	// sender flushes the era and re-cuts the remainder.
	next(streamed []*txGroup) (a int, recut bool)
	// heard feeds one NAK's deficit, already clamped to [1, k].
	heard(need int)
}

// constantPolicy is the static sender: (Config.K, MaxParity, Proactive)
// for every group of the transfer.
type constantPolicy struct{ p adapt.Params }

func (c constantPolicy) era() adapt.Params           { return c.p }
func (c constantPolicy) next([]*txGroup) (int, bool) { return c.p.A, false }
func (constantPolicy) heard(int)                     {}

// ewmaPolicy is Config.Adaptive: a fixed (k, h) whose proactive count
// tracks an EWMA of the repair deficits recent groups reported.
type ewmaPolicy struct {
	constantPolicy
	level float64
}

func (e *ewmaPolicy) next([]*txGroup) (int, bool) {
	// Gentle decay so the proactive level sinks again when the loss
	// subsides; NAK arrivals push it back up.
	e.level *= 0.97
	a := int(math.Ceil(e.level - 1e-9))
	if a < 0 {
		a = 0
	}
	if a > e.p.H/2 {
		a = e.p.H / 2
	}
	return a, false
}

// heard tracks the repair level: rise quickly on a worse deficit, sink
// slowly otherwise. NAKs are the only completion signal a NAK-based sender
// gets, so the EWMA is fed per NAK rather than per finished group.
func (e *ewmaPolicy) heard(need int) {
	if f := float64(need); f > e.level {
		e.level = 0.5*e.level + 0.5*f
	} else {
		e.level = 0.9*e.level + 0.1*f
	}
}

// ladderPolicy is Config.AdaptiveFEC: the adapt.Controller walks a
// loss→(k, h, a) ladder on the groups' first-round NAK deficits.
type ladderPolicy struct {
	ctl     *adapt.Controller
	lag     int // Config.ObserveLag
	obsNext int // next group index whose observation closes
}

func (l *ladderPolicy) era() adapt.Params { return l.ctl.Params() }

func (l *ladderPolicy) next(streamed []*txGroup) (int, bool) {
	// Group g's observation closes when group g+lag is about to be
	// streamed: its worst first-round NAK deficit has had that many group
	// airtimes to arrive (0 deficit = no NAK, exact at a=0, censored
	// otherwise — see internal/adapt).
	for l.obsNext+l.lag <= len(streamed) {
		tg := streamed[l.obsNext]
		l.ctl.Observe(tg.k, tg.aUsed, tg.maxNeed)
		l.obsNext++
	}
	p, recut := l.ctl.Decide() // probe groups carry the rung's (k, h) with A = 0
	return p.A, recut
}

// heard is a no-op: the controller samples tg.maxNeed, which HandlePacket
// maintains for every policy, when the group's lag window closes.
func (*ladderPolicy) heard(int) {}
