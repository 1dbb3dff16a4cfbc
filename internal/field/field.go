// Package field simulates an entire population of NP receivers as one
// struct-of-arrays object, the ReceiverField. Where core.Receiver keeps
// per-instance shard buffers, maps and timers — capping end-to-end simnet
// runs around 1e4..1e5 receivers — the field keeps only what the paper
// shows the protocol actually needs: per transmission group, which
// receivers are still deficient and by how much. Loss outcomes come from
// the sparse loss.DrawLost kernels, so per-packet cost is proportional to
// the number of LOST receivers, not to the population, and a full NP
// transfer to R=1e6 receivers completes in seconds of wall-clock.
//
// # State layout
//
// A group lives in two phases. During its data round the field appends
// each packet's loss draw as packed (receiver, seq) pairs — no protocol
// state is stored per receiver. At the group's first POLL (or the FIN)
// the pairs are consolidated: each touched receiver's misses collapse
// into one uint64 seq bitmap, and only the receivers whose deficit
// l = misses − (distinctTx − k) is still positive are kept, as two
// parallel ascending arrays (ids, missed). Everyone else — the
// overwhelming majority — is done and is never looked at again.
// Consolidation is linear in the drawn losses: one pass counts misses per
// receiver into a byte-per-receiver scratch array (missCnt: shared by all
// groups, all-zero between consolidations, so state stays O(deficient)),
// a second drops the pairs of every receiver whose count cannot exceed
// the group's excess, and only the few survivors are sorted. Repair
// packets then cost a merge walk of the draw against the active array,
// and receivers are dropped the moment their deficit reaches zero. The
// single-word bitmap is why the field requires K+MaxParity <= 64.
//
// # Feedback
//
// In the default aggregate mode the field runs the paper's slotted/damped
// NAK schedule once per group instead of once per receiver: a single
// representative timer armed in slot (s - l_max) multicasts one NAK
// carrying the worst deficit l_max — exactly the number the NP sender
// acts on — so feedback traffic and sender work stay O(groups), not
// O(R). The timers draw their slot jitter from the label-derived
// mcrun.DeriveSeed chain, making the NAK schedule a pure function of the
// configured Seed at any host parallelism. In Exact mode the field
// instead emulates every deficient receiver's individual timer,
// suppression window and retry backoff bit-for-bit; it exists to prove
// equivalence against R real core.Receiver instances (same seeds, same
// wire bytes — see TestFieldEquivalence) and is not meant for large R.
//
// # Receive rules
//
// Everything the protocol decides per frame or per group — which frames
// are admitted, what (k, h, codec) a group adopts, a receiver's deficit,
// what an NC combo repairs, the NAK slot and the NAK frame itself — is
// core.RxRules, the code core.Receiver runs; the field calls it with its
// own representation (a receiver's held shards are seqSeen &^ missed).
// What stays here is what makes a population cheap: the struct-of-arrays
// state, the loss draws, consolidation and the aggregate timer.
package field

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/loss"
	"rmfec/internal/mcrun"
	"rmfec/internal/packet"
)

// Config parameterises a receiver field.
type Config struct {
	// Protocol carries the NP session parameters (Session, K, MaxParity,
	// ShardSize, timing) and the optional Metrics/Trace sinks. It must
	// agree with the sender's configuration, and after Defaults the field
	// additionally requires K+MaxParity <= 64 (one uint64 seq bitmap per
	// tracked receiver).
	Protocol core.Config
	// Population supplies the joint per-packet loss outcome for all R
	// receivers; R is Population.R(). Sparse populations (DrawLost) are
	// used as such; plain ones fall back to a dense Draw plus scan.
	Population loss.Population
	// Seed roots the label-derived NAK jitter chain (aggregate mode) via
	// mcrun.DeriveSeed, so NAK schedules replay exactly across runs.
	Seed int64
	// Exact selects per-receiver NAK emulation instead of the aggregate
	// representative timer. Used by the equivalence tests; costs O(R)
	// timers in the worst case.
	Exact bool
	// JitterSeed, in Exact mode, returns the NAK-jitter RNG seed of
	// receiver i — set it to mirror the per-node RNG seeds of a reference
	// simnet topology. Nil derives seeds from the Seed label chain.
	JitterSeed func(i int) int64
	// InterDelay is the receiver-to-receiver propagation delay of the
	// emulated population, used to timestamp when one simulated
	// receiver's NAK is heard by the others (suppression). Default 2ms.
	InterDelay time.Duration
}

// Stats counts the field's aggregate protocol activity.
type Stats struct {
	Population int    // receivers fronted by the field
	Losses     uint64 // receiver-packet loss outcomes drawn
	DataRx     uint64 // distinct data shards accepted (node-level, not per receiver)
	ParityRx   uint64 // distinct parity shards accepted
	DupRx      uint64 // duplicate/resent shards seen
	PollRx     uint64 // POLLs admitted
	NakTx      uint64 // NAK frames multicast
	NakSupp    uint64 // receiver NAKs damped (aggregate: folded into a representative)
	NcRx       uint64 // NCREPAIR combos seen by the field's endpoint
	NcRepaired uint64 // receiver-losses healed by NC combos
	GroupsDone int    // groups every receiver holds k shards of
	MaxActive  int    // high-water mark of tracked deficient receivers
}

// Field is the struct-of-arrays receiver population. It implements the
// receive side of the NP protocol against an unmodified core.Sender: feed
// every arriving wire packet to HandlePacket from the owning Env's event
// loop. All methods must be called from that single goroutine.
type Field struct {
	env    core.Env
	cfg    core.Config
	pop    loss.Population
	sparse loss.SparsePopulation // non-nil when pop enumerates losses sparsely
	subset loss.SubsetPopulation // non-nil when pop draws among subsets
	popR   int

	seed       int64
	exact      bool
	jitterSeed func(i int) int64
	interDelay time.Duration

	rx         core.RxRules // the receive rules core.Receiver runs
	groups     map[uint32]*fgroup
	msgLen     uint64
	sawFin     bool
	complete   bool
	closed     bool
	lastRx     time.Duration
	hasRx      bool
	doneGroups int
	active     int // tracked deficient receivers across groups

	denseLost  []bool // dense-draw fallback scratch
	scratchIdx []int  // lost-index scratch for the dense fallback
	freePend   [][]int64
	missCnt    []uint8            // dropRecovered's per-receiver miss counters; all-zero between calls
	jitters    map[int]*rand.Rand // Exact mode: lazy per-receiver jitter streams

	stats Stats
	m     fieldMetrics
}

// fgroup is one transmission group's field state.
type fgroup struct {
	core.RxParams // (k, h, codec); K = 0 while unknown (FIN-created)

	idx     uint32
	pend    []int64 // packed id<<6|seq loss pairs, pre-consolidation
	seqSeen uint64  // distinct seqs that arrived at the field's endpoint
	nTx     int     // popcount of seqSeen
	tx      int     // all valid data+parity arrivals, duplicates included

	consolidated bool
	done         bool

	ids    []int    // still-deficient receivers, ascending
	missed []uint64 // their missed seqs, each a subset of seqSeen

	// Heard-NAK log for suppression windows: every NAK relevant to this
	// group, with its arrival time at the population. src is the firing
	// simulated receiver, or -1 for a NAK heard off the wire.
	heardAt  []time.Duration
	heardCnt []int
	heardSrc []int

	// Aggregate mode: the representative suppression timer.
	repCancel func()
	repRetry  int
	repRound  int
	repReset  time.Duration

	// Exact mode: per-receiver timer state, parallel to ids.
	resetAt []time.Duration
	retry   []int
	cancel  []func()
}

// New creates a receiver field on env. The Protocol config must satisfy
// core's validation plus the field's K+MaxParity <= 64 bitmap limit.
func New(env core.Env, cfg Config) (*Field, error) {
	if cfg.Population == nil {
		return nil, fmt.Errorf("field: nil Population")
	}
	pc := cfg.Protocol
	pc.Defaults()
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	if pc.K+pc.MaxParity > 64 {
		return nil, fmt.Errorf("field: K+MaxParity = %d exceeds the 64-shard bitmap limit; set MaxParity <= %d explicitly",
			pc.K+pc.MaxParity, 64-pc.K)
	}
	if pc.AdaptiveFEC {
		for i, r := range pc.Adapt.Ladder {
			if r.P.K+r.P.H > 64 {
				return nil, fmt.Errorf("field: ladder rung %d has k+h = %d, exceeding the 64-shard bitmap limit",
					i, r.P.K+r.P.H)
			}
		}
	}
	f := &Field{
		env:        env,
		cfg:        pc,
		pop:        cfg.Population,
		popR:       cfg.Population.R(),
		seed:       cfg.Seed,
		exact:      cfg.Exact,
		jitterSeed: cfg.JitterSeed,
		interDelay: cfg.InterDelay,
		rx:         core.NewRxRules(env, pc, 64), // one uint64 seq bitmap per receiver
		groups:     make(map[uint32]*fgroup),
		m:          newFieldMetrics(pc.Metrics),
	}
	if f.interDelay == 0 {
		f.interDelay = 2 * time.Millisecond
	}
	if sp, ok := cfg.Population.(loss.SparsePopulation); ok {
		f.sparse = sp
	} else {
		f.denseLost = make([]bool, f.popR)
	}
	if sub, ok := cfg.Population.(loss.SubsetPopulation); ok {
		f.subset = sub
	}
	if f.exact && f.jitterSeed == nil {
		f.jitterSeed = func(i int) int64 {
			return mcrun.DeriveSeed(cfg.Seed, fmt.Sprintf("field/jitter/%d", i))
		}
	}
	f.stats.Population = f.popR
	f.m.population.Set(int64(f.popR))
	return f, nil
}

// Stats returns a snapshot of the field's counters.
func (f *Field) Stats() Stats { return f.stats }

// Complete reports whether every simulated receiver holds the full
// message (all groups recovered and a FIN was seen).
func (f *Field) Complete() bool { return f.complete }

// Active returns the number of currently tracked deficient receivers,
// summed over unfinished groups.
func (f *Field) Active() int { return f.active }

// Close stops the field and cancels all pending NAK timers.
func (f *Field) Close() {
	f.closed = true
	for _, g := range f.groups {
		f.cancelTimers(g)
	}
}

func (f *Field) cancelTimers(g *fgroup) {
	if g.repCancel != nil {
		g.repCancel()
		g.repCancel = nil
	}
	for i, c := range g.cancel {
		if c != nil {
			c()
			g.cancel[i] = nil
		}
	}
}

// GroupTx returns the per-group count of valid data+parity arrivals
// (duplicates included) indexed by group, or nil before the total group
// count is known. Dividing by k gives the per-group transmission
// multiplicity M that the paper's E[M] model predicts.
func (f *Field) GroupTx() []int {
	total := f.rx.TotalTG()
	if total < 0 {
		return nil
	}
	tx := make([]int, total)
	for idx, g := range f.groups {
		if int(idx) < total {
			tx[idx] = g.tx
		}
	}
	return tx
}

// GroupKs returns the per-group negotiated k indexed by group (cfg.K for
// static sessions; 0 for adaptive groups whose parameters were never
// learned), or nil before the total group count is known.
func (f *Field) GroupKs() []int {
	total := f.rx.TotalTG()
	if total < 0 {
		return nil
	}
	ks := make([]int, total)
	for i := range ks {
		ks[i] = f.cfg.K
	}
	if f.cfg.AdaptiveFEC {
		for idx, g := range f.groups {
			if int(idx) < total {
				ks[idx] = g.K
			}
		}
	}
	return ks
}

// EM returns the measured expected transmission multiplicity E[M] — the
// mean over groups of arrivals/k, with each group's own negotiated k on
// adaptive sessions — and its standard error over groups.
func (f *Field) EM() (mean, se float64) {
	tx := f.GroupTx()
	if len(tx) == 0 {
		return 0, 0
	}
	ks := f.GroupKs()
	var sum, sumSq float64
	n := 0.0
	for i, t := range tx {
		if ks[i] <= 0 {
			continue // parameters never learned; no multiplicity to report
		}
		m := float64(t) / float64(ks[i])
		sum += m
		sumSq += m * m
		n++
	}
	if n == 0 {
		return 0, 0
	}
	mean = sum / n
	if n > 1 {
		variance := (sumSq - sum*sum/n) / (n - 1)
		if variance > 0 {
			se = math.Sqrt(variance / n)
		}
	}
	return mean, se
}

// HandlePacket feeds one arriving wire packet to the field. The buffer is
// only read during the call. Data-plane packets (DATA/PARITY) advance the
// loss population exactly once each — mirroring a simnet node's
// per-arrival loss application — before any session filtering, so the
// population's RNG stream matches a reference topology of per-instance
// receivers packet for packet.
func (f *Field) HandlePacket(wire []byte) {
	if f.closed {
		return
	}
	var pkt packet.Packet
	if packet.DecodeInto(&pkt, wire) != nil {
		return // rejected before it can advance the loss population
	}
	var lost []int
	if pkt.Type == packet.TypeData || pkt.Type == packet.TypeParity || pkt.Type == packet.TypeNcRepair {
		lost = f.drawLoss(&pkt)
	}
	if pkt.Session != f.cfg.Session {
		return
	}
	switch pkt.Type {
	case packet.TypeData, packet.TypeParity:
		f.onShard(&pkt, lost)
	case packet.TypeNcRepair:
		f.onNcRepair(&pkt, lost)
	case packet.TypePoll:
		f.onPoll(&pkt)
	case packet.TypeNak:
		f.onNak(&pkt)
	case packet.TypeFin:
		f.onFin(&pkt)
	}
}

// drawLoss advances the population by the inter-arrival time and returns
// the ascending indices of receivers that miss this packet. For a
// consolidated group under a memoryless subset population (and outside
// Exact mode, which must keep the reference RNG stream) the draw is
// restricted to the group's still-active receivers, making repair rounds
// O(p*active) instead of O(p*R).
func (f *Field) drawLoss(pkt *packet.Packet) []int {
	now := f.env.Now()
	dt := 0.0
	if f.hasRx {
		dt = (now - f.lastRx).Seconds()
	}
	f.lastRx = now
	f.hasRx = true

	var lost []int
	switch {
	case f.subset != nil && !f.exact && f.targetConsolidated(pkt):
		lost = f.subset.DrawLostAmong(dt, f.groups[pkt.Group].ids)
	case f.sparse != nil:
		lost = f.sparse.DrawLost(dt)
	default:
		f.pop.Draw(dt, f.denseLost)
		f.scratchIdx = f.scratchIdx[:0]
		for i, l := range f.denseLost {
			if l {
				f.scratchIdx = append(f.scratchIdx, i)
			}
		}
		lost = f.scratchIdx
	}
	f.stats.Losses += uint64(len(lost))
	f.m.losses.Add(uint64(len(lost)))
	return lost
}

// targetConsolidated reports whether pkt addresses an already-consolidated,
// unfinished group of this session — the only case where a subset draw is
// sound (new losses can no longer make a done receiver deficient).
func (f *Field) targetConsolidated(pkt *packet.Packet) bool {
	if pkt.Session != f.cfg.Session {
		return false
	}
	g, ok := f.groups[pkt.Group]
	return ok && g.consolidated && !g.done && int(pkt.K) == f.rx.GroupK(&g.RxParams)
}

func (f *Field) group(idx uint32) *fgroup {
	g, ok := f.groups[idx]
	if !ok {
		g = &fgroup{idx: idx}
		if n := len(f.freePend); n > 0 {
			g.pend = f.freePend[n-1][:0]
			f.freePend = f.freePend[:n-1]
		}
		f.groups[idx] = g
	}
	return g
}

// tgGroup returns the group of a TG-scoped frame with its parameters
// adopted, or nil when core.RxRules refuse the frame — the same answer a
// core.Receiver gets for it.
func (f *Field) tgGroup(pkt *packet.Packet) *fgroup {
	k, h, ok := f.rx.Header(pkt)
	if !ok {
		return nil
	}
	g := f.group(pkt.Group)
	if !f.rx.Admit(&g.RxParams, pkt, k, h) {
		return nil
	}
	return g
}

func (f *Field) onShard(pkt *packet.Packet, lost []int) {
	g := f.tgGroup(pkt)
	if g == nil {
		return
	}
	seq := int(pkt.Seq)
	g.tx++
	bit := uint64(1) << uint(seq)
	fresh := g.seqSeen&bit == 0
	if fresh {
		g.seqSeen |= bit
		g.nTx++
		if pkt.Type == packet.TypeData {
			f.stats.DataRx++
		} else {
			f.stats.ParityRx++
		}
	} else {
		f.stats.DupRx++
	}
	if g.done {
		return
	}
	if !g.consolidated {
		if fresh {
			// The data round never repeats a seq, so a pre-consolidation
			// duplicate carries no new loss information worth recording.
			n := len(g.pend)
			g.pend = slices.Grow(g.pend, len(lost))[:n+len(lost)]
			pairs := g.pend[n:]
			for i, id := range lost {
				pairs[i] = int64(id)<<6 | int64(seq)
			}
		}
		return
	}
	f.applyRepair(g, seq, fresh, lost)
	f.maybeComplete()
}

// applyRepair folds one post-consolidation arrival into the group's
// active arrays: a fresh seq raises everyone's excess by one and marks the
// receivers that lost it; a resend of a known seq heals the active
// receivers that were missing it and did not lose it again. Receivers
// whose deficit reaches zero are dropped immediately.
func (f *Field) applyRepair(g *fgroup, seq int, fresh bool, lost []int) {
	bit := uint64(1) << uint(seq)
	li := 0
	for i, id := range g.ids {
		for li < len(lost) && lost[li] < id {
			li++
		}
		hit := li < len(lost) && lost[li] == id
		if fresh {
			if hit {
				g.missed[i] |= bit
			}
		} else if !hit {
			g.missed[i] &^= bit
		}
	}
	f.sweepGroup(g)
}

// deficit returns how many shards a receiver that missed the seqs in
// missed still needs: core.RxRules.Deficit over what it holds, the rest of
// what arrived.
func (f *Field) deficit(g *fgroup, missed uint64) int {
	held := g.seqSeen &^ missed
	return f.rx.Deficit(&g.RxParams, bits.OnesCount64(held), held)
}

// sweepGroup drops active receivers whose deficit reached zero, compacting
// the parallel arrays in place, and finishes the group when none remain.
func (f *Field) sweepGroup(g *fgroup) {
	w := 0
	for i := range g.ids {
		if f.deficit(g, g.missed[i]) > 0 {
			if w != i {
				g.ids[w] = g.ids[i]
				g.missed[w] = g.missed[i]
				if f.exact {
					g.resetAt[w] = g.resetAt[i]
					g.retry[w] = g.retry[i]
					g.cancel[w] = g.cancel[i]
				}
			}
			w++
			continue
		}
		if f.exact && g.cancel[i] != nil {
			g.cancel[i]()
		}
	}
	if w == len(g.ids) {
		return
	}
	f.setActive(f.active - (len(g.ids) - w))
	g.ids = g.ids[:w]
	g.missed = g.missed[:w]
	if f.exact {
		for i := w; i < len(g.cancel); i++ {
			g.cancel[i] = nil
		}
		g.resetAt = g.resetAt[:w]
		g.retry = g.retry[:w]
		g.cancel = g.cancel[:w]
	}
	if w == 0 {
		f.groupDone(g)
	}
}

func (f *Field) setActive(n int) {
	f.active = n
	if n > f.stats.MaxActive {
		f.stats.MaxActive = n
	}
	f.m.activeReceivers.Set(int64(n))
}

// consolidate collapses the group's pending loss pairs into the active
// struct-of-arrays form at its first poll: sort the packed (id, seq)
// pairs, OR each receiver's misses into one bitmap, and keep only the
// receivers whose deficit is still positive. Under the MDS codes with
// excess transmissions the pairs of receivers that cannot be deficient
// are dropped before the sort, which is what keeps a 1e6-receiver group
// linear in its drawn losses.
func (f *Field) consolidate(g *fgroup) {
	if g.consolidated {
		return
	}
	g.consolidated = true
	excess := g.nTx - f.rx.GroupK(&g.RxParams)
	if excess < 0 {
		f.materializeAll(g)
	} else {
		pend := g.pend
		if g.Code == nil && excess > 0 {
			pend = f.dropRecovered(pend, excess)
		}
		slices.Sort(pend)
		for i := 0; i < len(pend); {
			id := int(pend[i] >> 6)
			var bm uint64
			j := i
			for ; j < len(pend) && int(pend[j]>>6) == id; j++ {
				bm |= uint64(1) << uint(pend[j]&63)
			}
			i = j
			if f.deficit(g, bm) > 0 {
				g.ids = append(g.ids, id)
				g.missed = append(g.missed, bm)
			}
		}
	}
	f.freePend = append(f.freePend, g.pend[:0])
	g.pend = nil
	if f.exact {
		g.resetAt = make([]time.Duration, len(g.ids))
		g.retry = make([]int, len(g.ids))
		g.cancel = make([]func(), len(g.ids))
	}
	f.setActive(f.active + len(g.ids))
	f.m.deficient.Observe(float64(len(g.ids)))
	if len(g.ids) == 0 {
		f.groupDone(g)
	}
}

// dropRecovered compacts pend in place to the pairs of the receivers that
// missed more than excess packets, keeping their order, and returns the
// shortened slice. A loss draw lists no receiver twice and only fresh
// seqs are recorded, so a receiver's pair count is its number of distinct
// misses (at most 64, hence one byte) and everyone dropped here has
// deficit zero. The counters live in f.missCnt and are zero again on
// return: dropped pairs clear theirs as they go, survivors afterwards —
// O(len(pend)) in all, never a clear of all R bytes.
func (f *Field) dropRecovered(pend []int64, excess int) []int64 {
	if f.missCnt == nil {
		f.missCnt = make([]uint8, f.popR)
	}
	cnt := f.missCnt
	for _, p := range pend {
		cnt[p>>6]++
	}
	kept := pend[:0]
	for _, p := range pend {
		if int(cnt[p>>6]) > excess {
			kept = append(kept, p)
		} else {
			cnt[p>>6] = 0
		}
	}
	for _, p := range kept {
		cnt[p>>6] = 0
	}
	return kept
}

// materializeAll handles the degenerate consolidation of a group polled
// before k distinct transmissions arrived: every receiver is deficient.
func (f *Field) materializeAll(g *fgroup) {
	g.ids = make([]int, f.popR)
	g.missed = make([]uint64, f.popR)
	for i := range g.ids {
		g.ids[i] = i
	}
	for _, p := range g.pend {
		g.missed[p>>6] |= uint64(1) << uint(p&63)
	}
}

// groupDone marks a group recovered by every receiver and releases its
// state; only the bookkeeping shell stays in the map.
func (f *Field) groupDone(g *fgroup) {
	if g.done {
		return
	}
	g.done = true
	f.cancelTimers(g)
	g.ids = nil
	g.missed = nil
	g.heardAt, g.heardCnt, g.heardSrc = nil, nil, nil
	g.resetAt, g.retry, g.cancel = nil, nil, nil
	f.doneGroups++
	f.stats.GroupsDone++
	f.m.groupsDone.Inc()
}

// onNcRepair folds one network-coded repair combo into the active
// arrays: every tracked receiver that did not lose the combo itself and
// misses EXACTLY ONE of its members recovers that member (it XORs out
// the rest), so one combo may heal a different loss per receiver.
// Receivers missing none are unaffected duplicates; receivers missing
// two or more cannot decode it and keep their state.
func (f *Field) onNcRepair(pkt *packet.Packet, lost []int) {
	g := f.tgGroup(pkt)
	if g == nil {
		return
	}
	mask := g.NcMask(pkt)
	if mask == 0 {
		return
	}
	g.tx++
	f.stats.NcRx++
	if g.done || !g.consolidated {
		// NC rounds answer NAKs, which only exist post-consolidation; a
		// straggler combo for an unconsolidated group carries no new seq
		// and is ignored like any pre-consolidation duplicate.
		return
	}
	li := 0
	for i, id := range g.ids {
		for li < len(lost) && lost[li] < id {
			li++
		}
		if li < len(lost) && lost[li] == id {
			continue // this receiver lost the combo packet too
		}
		if bit := core.NcRepairs(mask, g.missed[i]); bit != 0 {
			g.missed[i] &^= bit
			f.stats.NcRepaired++
		}
	}
	f.sweepGroup(g)
	f.maybeComplete()
}

func (f *Field) onPoll(pkt *packet.Packet) {
	g := f.tgGroup(pkt)
	if g == nil {
		return
	}
	f.stats.PollRx++
	if !g.done {
		f.consolidate(g)
	}
	if !g.done {
		now := f.env.Now()
		// A POLL opens a new round: the suppression windows and the NAK
		// backoff start over, as in core.Receiver.onPoll.
		if f.exact {
			for i := range g.ids {
				g.resetAt[i] = now
				g.retry[i] = 0
				f.armExact(g, i, int(pkt.Count))
			}
		} else {
			g.repReset = now
			g.repRetry = 0
			f.armRep(g, int(pkt.Count))
		}
	}
	f.maybeComplete()
}

func (f *Field) onNak(pkt *packet.Packet) {
	g, ok := f.groups[pkt.Group]
	if !ok || g.done {
		return
	}
	f.hearNak(g, f.env.Now(), int(pkt.Count), -1)
}

func (f *Field) hearNak(g *fgroup, at time.Duration, count, src int) {
	g.heardAt = append(g.heardAt, at)
	g.heardCnt = append(g.heardCnt, count)
	g.heardSrc = append(g.heardSrc, src)
}

// heardMax returns the largest NAK deficit the population heard for g in
// the window (since, before), excluding NAKs fired by receiver self. The
// strict bounds mirror the reference scheduler's FIFO tie-breaks: an
// arrival stamped exactly at a timer's own fire time has not yet been
// processed by the per-instance receiver when its timer runs.
func (f *Field) heardMax(g *fgroup, since, before time.Duration, self int) int {
	max := 0
	for i, at := range g.heardAt {
		if at > since && at < before && g.heardSrc[i] != self && g.heardCnt[i] > max {
			max = g.heardCnt[i]
		}
	}
	return max
}

func (f *Field) onFin(pkt *packet.Packet) {
	if !f.rx.Fin(pkt) {
		return
	}
	if len(pkt.Payload) >= 8 {
		f.msgLen = binary.BigEndian.Uint64(pkt.Payload)
		f.sawFin = true
	}
	// The FIN doubles as a poll for every unfinished group, including
	// groups the population never saw a packet of.
	for i := 0; i < f.rx.TotalTG(); i++ {
		g := f.group(uint32(i))
		if !g.done {
			f.consolidate(g)
		}
		if g.done {
			continue
		}
		if f.exact {
			for j := range g.ids {
				if g.cancel[j] == nil {
					f.armExact(g, j, f.rx.GroupK(&g.RxParams))
				}
			}
		} else if g.repCancel == nil {
			f.armRep(g, f.rx.GroupK(&g.RxParams))
		}
	}
	f.maybeComplete()
}

func (f *Field) maybeComplete() {
	total := f.rx.TotalTG()
	if f.complete || !f.sawFin || total < 0 || f.doneGroups < total {
		return
	}
	f.complete = true
	f.m.deliveries.Add(uint64(f.popR))
	f.cfg.Trace.Record(traceEvent(f.env.Now(), core.TraceDeliver, uint64(total), f.msgLen))
	f.Close()
}

// sendNak multicasts one NAK carrying deficit l for g on behalf of active
// receiver i, whose missing-data bitmap rides along under NC repair; retry
// marks a backoff timer's NAK, which echoes no POLL.
func (f *Field) sendNak(g *fgroup, l, i int, retry bool) {
	f.rx.Nak(g.idx, &g.RxParams, l, g.seqSeen&^g.missed[i], retry)
	f.stats.NakTx++
	f.m.naksSent.Inc()
	f.m.nakDeficit.Observe(float64(l))
}
