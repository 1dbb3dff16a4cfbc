// Package field simulates an entire population of NP receivers as one
// struct-of-arrays object, the ReceiverField. Where core.Receiver keeps
// per-instance shard buffers, maps and timers — capping end-to-end simnet
// runs around 1e4..1e5 receivers — the field keeps only what the paper
// shows the protocol actually needs: per transmission group, which
// receivers are still deficient and by how much. Loss outcomes come from
// the sparse loss kernels, so cost is proportional to the number of LOST
// receivers, not to the population, and a full NP transfer to R=1e6
// receivers completes in well under a second of wall-clock.
//
// # State layout
//
// A group lives in two phases. During its data round no protocol state is
// stored per receiver. At the group's first POLL (or the FIN) the round
// is consolidated: each receiver's misses are one uint64 seq bitmap, and
// only the receivers whose deficit l = misses − (distinctTx − k) is still
// positive are kept, as two parallel ascending arrays (ids, missed).
// Everyone else — the overwhelming majority — is done and is never looked
// at again.
//
// Under a memoryless population (loss.SubsetPopulation, outside Exact
// mode) no receiver is drawn at all while an RS group's arrivals stay
// symmetric in its seqs: the group keeps counts, bins[c] receivers holding
// exactly c shards (c < k), which consolidation draws once for the data
// round (DrawRound) and every fresh repair shard splits by one binomial
// draw per bin (DrawLostCount), so a group costs O(k) draws per round at
// any R. A receiver's held set is then a uniform c-subset of seqSeen, so
// when counts no longer say enough — a resent seq, an NC combo or session,
// a rect codec, a late k or codec — the group materialises its receivers
// into the arrays below with DrawMissed, exactly. In Exact mode and under
// stateful populations (Markov, FBT, Tree, Independent) each arrival's
// loss draw is appended as packed (receiver, seq) pairs, which
// consolidation sorts and ORs into one bitmap per receiver. Repair
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
	// receivers; R is Population.R(). Subset populations keep RS groups as
	// counts (DrawRound, DrawLostCount) outside Exact mode; the others are
	// drawn per packet (DrawLost).
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
	Losses     uint64 // receiver-packet losses drawn (a round drawn as counts counts its deficient receivers' only)
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
	subset loss.SubsetPopulation // non-nil when pop draws among subsets, outside Exact mode
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

	freePend [][]int64
	jitters  map[int]*rand.Rand // Exact mode: lazy per-receiver jitter streams

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

	// hist: the deficient receivers are counts, bins[c] of them holding
	// exactly c of the group's shards (c < k), not ids/missed.
	hist bool
	bins [65]int

	ids    []int    // still-deficient receivers, ascending
	missed []uint64 // their missed seqs, each a subset of seqSeen
	// The deficient receivers' count, their worst deficit l_max and the
	// first index attaining it (-1 when none or under hist), as the latest
	// pass over the arrays or the bins found them.
	nDef, lmax, lmaxAt int

	// Heard-NAK log for suppression windows: every NAK relevant to this
	// group, with its arrival time at the population. src is the firing
	// simulated receiver, or -1 for a NAK heard off the wire.
	heardAt  []time.Duration
	heardCnt []int
	heardSrc []int

	// Aggregate mode: the representative suppression timer, and its two
	// callbacks, made once per group so that arming one allocates nothing.
	repCancel             func()
	repRetry              int
	repRound              int
	repReset              time.Duration
	repFire, repRetryFire func()

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
	if sub, ok := cfg.Population.(loss.SubsetPopulation); ok && !f.exact {
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
// only read during the call. In Exact mode and under stateful populations,
// data-plane packets (DATA/PARITY/NCREPAIR) advance the loss population
// exactly once each — mirroring a simnet node's per-arrival loss
// application — before any session filtering, so the population's RNG
// stream matches a reference topology of per-instance receivers packet
// for packet. A memoryless population is drawn per arrival only for
// consolidated groups, and as counts while a group keeps them; data
// rounds are drawn whole at consolidation.
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
// the ascending indices of receivers that miss this packet. Under a
// memoryless subset population (never in Exact mode, which must keep the
// reference RNG stream) only an already-consolidated, unfinished group of
// this session has receivers to draw for (new losses can no longer make a
// done receiver deficient). A group kept as counts materialises first if
// pkt is a resend or an NC combo, and otherwise draws nothing here: a
// fresh shard splits its bins in onShard. Arrays are drawn among their
// active receivers, making repair rounds O(p*active) instead of O(p*R).
func (f *Field) drawLoss(pkt *packet.Packet) []int {
	now := f.env.Now()
	dt := 0.0
	if f.hasRx {
		dt = (now - f.lastRx).Seconds()
	}
	f.lastRx = now
	f.hasRx = true

	var lost []int
	if f.subset == nil {
		lost = f.pop.DrawLost(dt)
	} else {
		g, ok := f.groups[pkt.Group]
		if pkt.Session != f.cfg.Session || !ok || !g.consolidated || g.done || int(pkt.K) != f.rx.GroupK(&g.RxParams) {
			return nil
		}
		if g.hist {
			if pkt.Type != packet.TypeNcRepair && g.seqSeen>>pkt.Seq&1 == 0 {
				return nil // a fresh shard: onShard splits the bins
			}
			f.materialize(g)
		}
		lost = f.subset.DrawLostAmong(dt, g.ids)
	}
	f.countLosses(len(lost))
	return lost
}

// countLosses adds n receiver-packet losses to the stats and the metric.
func (f *Field) countLosses(n int) {
	f.stats.Losses += uint64(n)
	f.m.losses.Add(uint64(n))
}

func (f *Field) group(idx uint32) *fgroup {
	g, ok := f.groups[idx]
	if !ok {
		g = &fgroup{idx: idx}
		if n := len(f.freePend); n > 0 {
			g.pend = f.freePend[n-1][:0]
			f.freePend = f.freePend[:n-1]
		}
		if !f.exact {
			g.repFire = func() { f.fireRep(g, false) }
			g.repRetryFire = func() { f.fireRep(g, true) }
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
	k0, rect0 := g.K, g.Code != nil
	ok = f.rx.Admit(&g.RxParams, pkt, k, h)
	if g.consolidated && (g.K != k0 || (g.Code != nil) != rect0) {
		// The group learned its k or its codec only now, which moves
		// every deficit (counts kept under the old rule no longer say
		// it); the next arrival's sweep drops whoever is done.
		f.materialize(g)
		f.rescanLmax(g)
	}
	if !ok {
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
	if g.hist {
		f.histFresh(g) // drawLoss materialised the group unless seq is fresh
	} else {
		f.applyRepair(g, seq, fresh, lost)
	}
	f.maybeComplete()
}

// histFresh folds a fresh shard into g's bins: each deficient receiver
// holds it unless it lost it, independently, so each bin splits by one
// binomial draw, from the top down so that no receiver moves twice, and
// those reaching k are done.
func (f *Field) histFresh(g *fgroup) {
	k := f.rx.GroupK(&g.RxParams)
	lost := 0
	for c := k - 1; c >= 0; c-- {
		if m := g.bins[c]; m > 0 {
			l := f.subset.DrawLostCount(m)
			g.bins[c], g.bins[c+1] = l, g.bins[c+1]+m-l
			lost += l
		}
	}
	g.bins[k] = 0
	f.countLosses(lost)
	f.settle(g, &sweep{at: -1})
}

// applyRepair folds one post-consolidation arrival into the group's
// active arrays: a fresh seq raises everyone's excess by one and marks the
// receivers that lost it; a resend of a known seq heals the active
// receivers that were missing it and did not lose it again. Receivers
// whose deficit reaches zero are dropped in the same pass.
func (f *Field) applyRepair(g *fgroup, seq int, fresh bool, lost []int) {
	bit := uint64(1) << uint(seq)
	li := 0
	s := sweep{at: -1}
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
		f.keep(g, &s, i)
	}
	f.settle(g, &s)
}

// deficit returns how many shards a receiver that missed the seqs in
// missed still needs: core.RxRules.Deficit over what it holds, the rest of
// what arrived.
func (f *Field) deficit(g *fgroup, missed uint64) int {
	held := g.seqSeen &^ missed
	return f.rx.Deficit(&g.RxParams, bits.OnesCount64(held), held)
}

// sweep is one pass over a group's active arrays that compacts them in
// place to the receivers whose deficit is still positive (w of them so
// far) and finds the worst deficit lmax and the first kept index
// attaining it. Every change to a tracked receiver's missed bitmap goes
// through one, so the NAK timer reads g.lmax instead of scanning.
type sweep struct{ w, lmax, at int }

// keep visits active receiver i once its missed bitmap is final for the
// pass: it drops the receiver if its deficit is zero and moves it down to
// slot s.w otherwise.
func (f *Field) keep(g *fgroup, s *sweep, i int) {
	l := f.deficit(g, g.missed[i])
	if l <= 0 {
		if f.exact && g.cancel[i] != nil {
			g.cancel[i]()
		}
		return
	}
	if l > s.lmax {
		s.lmax, s.at = l, s.w
	}
	if w := s.w; w != i {
		g.ids[w] = g.ids[i]
		g.missed[w] = g.missed[i]
		if f.exact {
			g.resetAt[w] = g.resetAt[i]
			g.retry[w] = g.retry[i]
			g.cancel[w] = g.cancel[i]
		}
	}
	s.w++
}

// settle ends a pass over g that kept s.w receivers, or that moved its
// bins (s then zero but for at = -1): it records the deficient count and
// the worst deficit — under hist k less the lowest non-empty bin —,
// truncates the arrays, moves the active count, and finishes the group
// when none remain.
func (f *Field) settle(g *fgroup, s *sweep) {
	w := s.w
	if k := f.rx.GroupK(&g.RxParams); g.hist {
		for c := k - 1; c >= 0; c-- {
			if g.bins[c] > 0 {
				w, s.lmax = w+g.bins[c], k-c
			}
		}
	} else {
		g.ids, g.missed = g.ids[:w], g.missed[:w]
	}
	f.setActive(f.active + w - g.nDef)
	g.nDef, g.lmax, g.lmaxAt = w, s.lmax, s.at
	if f.exact {
		clear(g.cancel[w:])
		g.resetAt, g.retry, g.cancel = g.resetAt[:w], g.retry[:w], g.cancel[:w]
	}
	if w == 0 {
		f.groupDone(g)
	}
}

// rescanLmax records the worst deficit of g's arrays and its first index
// without dropping anyone.
func (f *Field) rescanLmax(g *fgroup) {
	g.lmax, g.lmaxAt = 0, -1
	for i := range g.ids {
		if l := f.deficit(g, g.missed[i]); l > g.lmax {
			g.lmax, g.lmaxAt = l, i
		}
	}
}

func (f *Field) setActive(n int) {
	f.active = n
	if n > f.stats.MaxActive {
		f.stats.MaxActive = n
	}
	f.m.activeReceivers.Set(int64(n))
}

// consolidate collapses the group's data round into its post-poll form at
// its first poll and keeps only the receivers whose deficit is still
// positive. Under a subset population the round is drawn here, once, into
// the group's bins: those short of k of the nTx shards, or, for a rect
// codec (materialised at once, like every group of an NC session), those
// that missed any. Otherwise it sorts the pending packed (id, seq) pairs
// and ORs each receiver's misses into one bitmap.
func (f *Field) consolidate(g *fgroup) {
	if g.consolidated {
		return
	}
	g.consolidated = true
	k := f.rx.GroupK(&g.RxParams)
	switch {
	case f.subset != nil:
		if g.Code != nil {
			k = max(k, g.nTx)
		}
		g.hist = true
		f.subset.DrawRound(g.nTx, k, &g.bins)
		lost := 0
		for c, m := range g.bins {
			lost += m * (g.nTx - c)
		}
		f.countLosses(lost)
		if g.Code != nil || f.cfg.NCRepair {
			f.materialize(g)
		}
	case g.nTx < k:
		f.materializeAll(g)
	default:
		pend := g.pend
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
	s := sweep{at: -1}
	for i := range g.ids {
		f.keep(g, &s, i)
	}
	f.settle(g, &s)
	f.m.deficient.Observe(float64(g.nDef))
}

// materialize turns g's bins into ids/missed arrays. Every arrival so far
// was symmetric in the seqs, so a receiver holding c of the nTx shards
// missed a uniform (nTx-c)-subset of seqSeen; receivers are exchangeable,
// so ids are 0, 1, ... in bin order. A group without counts has empty
// bins, so for it this does nothing.
func (f *Field) materialize(g *fgroup) {
	g.hist = false
	for c, m := range g.bins {
		for range m {
			g.ids = append(g.ids, len(g.ids))
			g.missed = append(g.missed, f.subset.DrawMissed(g.seqSeen, g.nTx-c))
		}
	}
	g.bins = [65]int{}
}

// materializeAll handles the degenerate consolidation of a group polled
// before k distinct transmissions arrived: every receiver is deficient.
func (f *Field) materializeAll(g *fgroup) {
	g.ids = slices.Grow(g.ids[:0], f.popR)[:f.popR]
	g.missed = slices.Grow(g.missed[:0], f.popR)[:f.popR]
	clear(g.missed)
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
	s := sweep{at: -1}
	for i, id := range g.ids {
		for li < len(lost) && lost[li] < id {
			li++
		}
		// A receiver that lost the combo packet too keeps its bitmap.
		if li >= len(lost) || lost[li] != id {
			if bit := core.NcRepairs(mask, g.missed[i]); bit != 0 {
				g.missed[i] &^= bit
				f.stats.NcRepaired++
			}
		}
		f.keep(g, &s, i)
	}
	f.settle(g, &s)
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
// receiver i (-1 under counts), whose missing-data bitmap rides along
// under NC repair; retry
// marks a backoff timer's NAK, which echoes no POLL.
func (f *Field) sendNak(g *fgroup, l, i int, retry bool) {
	var held uint64 // read only under NC repair, which never keeps counts
	if i >= 0 {
		held = g.seqSeen &^ g.missed[i]
	}
	f.rx.Nak(g.idx, &g.RxParams, l, held, retry)
	f.stats.NakTx++
	f.m.naksSent.Inc()
	f.m.nakDeficit.Observe(float64(l))
}
