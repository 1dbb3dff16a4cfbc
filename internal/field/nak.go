package field

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"rmfec/internal/mcrun"
)

// This file implements the field's two NAK feedback modes.
//
// Aggregate (default): one representative suppression timer per group. It
// fires in the slot of the group's WORST deficit l_max and multicasts a
// single NAK carrying l_max — the exact quantity the NP sender services a
// round with — so the emulated population's feedback collapses to one
// frame per group per round. Every other deficient receiver's NAK counts
// as damped, which is what the paper's slotting/damping scheme achieves
// in expectation with well-separated slots. Slot jitter comes from the
// label-derived mcrun.DeriveSeed chain: the schedule is a pure function
// of (Seed, session, group, round) and replays identically at any host
// parallelism.
//
// Exact: one emulated timer per deficient receiver, with per-receiver
// jitter streams and suppression windows. Slot (RxRules.SlotDelay), retry
// backoff (RxRules.Backoff) and the NAK frame (RxRules.Nak) are the calls
// core.Receiver makes, so the wire matches it bit for bit. Used to prove
// that equivalence at small R.

// labelJitter draws the slot jitter for (group, round) from the seed
// chain: uniform in [0, Ts), as the per-instance receivers draw from
// their node RNGs.
func (f *Field) labelJitter(group uint32, round int) time.Duration {
	label := fmt.Sprintf("field/nak/%d/%d/%d", f.cfg.Session, group, round)
	r := rand.New(rand.NewSource(mcrun.DeriveSeed(f.seed, label)))
	return time.Duration(r.Int63n(int64(f.cfg.Ts)))
}

// lmax returns the group's worst active deficit and the index (into g.ids)
// of a receiver attaining it, -1 when every deficit is zero.
func (f *Field) lmax(g *fgroup) (int, int) {
	max, wi := 0, -1
	for i := range g.ids {
		if l := f.deficit(g, g.missed[i]); l > max {
			max, wi = l, i
		}
	}
	return max, wi
}

// armRep arms (or re-arms) the group's representative NAK timer for a
// round of roundSize transmissions.
func (f *Field) armRep(g *fgroup, roundSize int) {
	l, _ := f.lmax(g)
	if l == 0 {
		return
	}
	delay := f.rx.SlotDelay(roundSize, l) + f.labelJitter(g.idx, g.repRound)
	g.repRound++
	if g.repCancel != nil {
		g.repCancel()
	}
	g.repCancel = f.env.After(delay, func() { f.fireRep(g, false) })
}

// fireRep is the representative timer: re-check the deficit (repairs may
// have landed while waiting), honour external damping, send one NAK for
// the worst remaining deficit, and re-arm with linear backoff exactly as
// a single receiver would (retry: the backoff's firing).
func (f *Field) fireRep(g *fgroup, retry bool) {
	if f.closed || g.done {
		return
	}
	now := f.env.Now()
	l, worst := f.lmax(g)
	if l == 0 {
		return
	}
	deficient := uint64(len(g.ids))
	if f.heardMax(g, g.repReset, now, -2) >= l {
		// An off-wire NAK already asked for at least as much: the whole
		// population's round is damped.
		f.stats.NakSupp += deficient
		f.m.naksSupp.Add(deficient)
	} else {
		f.sendNak(g, l, worst, retry)
		// The representative spoke for every other deficient receiver.
		f.stats.NakSupp += deficient - 1
		f.m.naksSupp.Add(deficient - 1)
	}
	g.repRetry++
	g.repReset = now
	g.repCancel = f.env.After(f.rx.Backoff(g.repRetry), func() { f.fireRep(g, true) })
}

// jitterFor returns receiver id's private NAK-jitter stream (Exact mode),
// creating it on first use so the draw sequence matches a reference
// receiver that only consults its RNG when it arms a NAK.
func (f *Field) jitterFor(id int) *rand.Rand {
	if f.jitters == nil {
		f.jitters = make(map[int]*rand.Rand)
	}
	r, ok := f.jitters[id]
	if !ok {
		r = rand.New(rand.NewSource(f.jitterSeed(id)))
		f.jitters[id] = r
	}
	return r
}

// armExact arms receiver g.ids[i]'s emulated NAK timer in its
// RxRules.SlotDelay slot, consuming one jitter draw as core.Receiver does.
func (f *Field) armExact(g *fgroup, i, roundSize int) {
	id := g.ids[i]
	l := f.deficit(g, g.missed[i])
	if l == 0 {
		// Unreachable for tracked receivers (sweepGroup drops them), kept
		// for symmetry with the reference receiver's guard.
		return
	}
	delay := f.rx.SlotDelay(roundSize, l) +
		time.Duration(f.jitterFor(id).Int63n(int64(f.cfg.Ts)))
	if g.cancel[i] != nil {
		g.cancel[i]()
	}
	g.cancel[i] = f.env.After(delay, func() { f.fireExact(g, id, false) })
}

// fireExact is one emulated receiver's NAK timer: suppressed if the
// population heard an equal-or-larger NAK from someone else since the
// receiver's last reset, multicast otherwise, and always re-armed with
// linear backoff (retry) while the group stays incomplete.
func (f *Field) fireExact(g *fgroup, id int, retry bool) {
	if f.closed || g.done {
		return
	}
	i, ok := slices.BinarySearch(g.ids, id)
	if !ok {
		return // recovered and dropped since arming
	}
	now := f.env.Now()
	l := f.deficit(g, g.missed[i])
	if l == 0 {
		return
	}
	if f.heardMax(g, g.resetAt[i], now, id) >= l {
		f.stats.NakSupp++
		f.m.naksSupp.Inc()
	} else {
		f.sendNak(g, l, i, retry)
		// The population hears this NAK one inter-receiver delay later.
		f.hearNak(g, now+f.interDelay, l, id)
	}
	g.retry[i]++
	g.resetAt[i] = now
	g.cancel[i] = f.env.After(f.rx.Backoff(g.retry[i]), func() { f.fireExact(g, id, true) })
}
