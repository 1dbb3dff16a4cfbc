// Package loss implements the packet-loss processes of the paper's
// evaluation: spatially and temporally independent Bernoulli loss
// (Section 3), two-state continuous-time Markov ("burst") loss fitted to
// Bolot's Internet measurements (Section 4.2), and full-binary-tree shared
// loss where one faulty node affects its whole subtree (Section 4.1).
// All processes are deterministic functions of their seed, which keeps the
// Monte-Carlo figures reproducible.
package loss

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Process is a temporal loss process observed by a single receiver. A
// multicast packet sent dt seconds after the previous one is lost with a
// probability that may depend on the process state (burst loss) or not
// (Bernoulli).
type Process interface {
	// Lost advances the process clock by dt seconds and reports whether a
	// packet sent at the new instant is lost.
	Lost(dt float64) bool
	// Reset re-draws the initial (stationary) state.
	Reset()
}

// Bernoulli is temporally independent loss with probability P.
type Bernoulli struct {
	P   float64
	rng *rand.Rand
}

// NewBernoulli returns an independent loss process with probability p.
func NewBernoulli(p float64, rng *rand.Rand) *Bernoulli {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("loss: Bernoulli p = %g", p))
	}
	return &Bernoulli{P: p, rng: rng}
}

// Lost implements Process; dt is irrelevant for memoryless loss.
func (b *Bernoulli) Lost(float64) bool { return b.rng.Float64() < b.P }

// Reset implements Process (no state).
func (b *Bernoulli) Reset() {}

// Markov is the paper's two-state continuous-time Markov chain: state 0 =
// no loss, state 1 = loss. A packet transmitted while the chain is in
// state 1 is lost. The chain leaves state 0 at rate Lambda0 and state 1 at
// rate Lambda1, giving stationary loss probability
// pi1 = Lambda0/(Lambda0+Lambda1).
type Markov struct {
	Lambda0, Lambda1 float64
	rate             float64 // Lambda0 + Lambda1
	pi1              float64
	state            int
	rng              *rand.Rand
	// decayDt, decayExp remember the last dt and exp(-rate*dt): a paced
	// sender presents the same dt packet after packet. NewMarkov starts
	// them at the dt = 0 entry, exp(0) = 1.
	decayDt, decayExp float64
}

// NewMarkov builds the chain from the paper's parameters: target packet
// loss probability p, mean burst length meanBurst (in packets, >= 1), and
// packet sending rate pktRate (packets/second). Following Section 4.2,
//
//	Lambda1 = -pktRate * ln(1 - 1/meanBurst)   (exit rate from the loss state)
//	Lambda0 = Lambda1 * p/(1-p)                (so that pi1 = p)
//
// which makes the run of consecutive lost packets at spacing 1/pktRate
// geometric with mean meanBurst. meanBurst == 1 degenerates to Bernoulli
// behaviour in the limit; use NewBernoulli for that case instead.
func NewMarkov(p, meanBurst, pktRate float64, rng *rand.Rand) *Markov {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("loss: Markov p = %g, need 0 < p < 1", p))
	}
	if meanBurst <= 1 {
		panic(fmt.Sprintf("loss: Markov meanBurst = %g, need > 1", meanBurst))
	}
	if pktRate <= 0 {
		panic(fmt.Sprintf("loss: Markov pktRate = %g", pktRate))
	}
	l1 := -pktRate * math.Log(1-1/meanBurst)
	l0 := l1 * p / (1 - p)
	m := &Markov{Lambda0: l0, Lambda1: l1, rate: l0 + l1, pi1: p, rng: rng, decayExp: 1}
	m.Reset()
	return m
}

// Reset draws the state from the stationary distribution.
func (m *Markov) Reset() {
	if m.rng.Float64() < m.pi1 {
		m.state = 1
	} else {
		m.state = 0
	}
}

// State returns the current chain state (0 = good, 1 = loss).
func (m *Markov) State() int { return m.state }

// decay returns exp(-rate*dt), recomputed only when dt changes.
func (m *Markov) decay(dt float64) float64 {
	if dt != m.decayDt {
		m.decayDt, m.decayExp = dt, math.Exp(-m.rate*dt)
	}
	return m.decayExp
}

// P11 returns P(X_{t+dt} = 1 | X_t = 1).
func (m *Markov) P11(dt float64) float64 {
	return m.pi1 + (1-m.pi1)*m.decay(dt)
}

// P01 returns P(X_{t+dt} = 1 | X_t = 0).
func (m *Markov) P01(dt float64) float64 {
	return m.pi1 * (1 - m.decay(dt))
}

// Lost advances the chain by dt and reports loss.
func (m *Markov) Lost(dt float64) bool {
	var pLoss float64
	if m.state == 1 {
		pLoss = m.P11(dt)
	} else {
		pLoss = m.P01(dt)
	}
	if m.rng.Float64() < pLoss {
		m.state = 1
		return true
	}
	m.state = 0
	return false
}

// Population is a set of R receivers with a joint spatial loss draw: one
// multicast transmission, one outcome per receiver.
type Population interface {
	// R returns the number of receivers.
	R() int
	// Draw advances every receiver by dt seconds and records in lost
	// (length R) whether each receiver misses a packet sent now.
	Draw(dt float64, lost []bool)
	// Reset re-initialises all receiver state.
	Reset()
}

// SparsePopulation is an optional extension of Population for loss
// processes that can enumerate the lost receivers of a transmission
// directly, in expected time proportional to the number of losses rather
// than the number of receivers. The simulation engines type-assert for it
// and fall back to a dense Draw plus scan when it is absent
// (heterogeneous Independent populations, where each receiver owns an
// arbitrary Process that must be advanced individually).
type SparsePopulation interface {
	Population
	// DrawLost advances every receiver by dt seconds and returns the
	// indices of the receivers that miss a packet sent now, in ascending
	// order without duplicates. The returned slice is owned by the
	// population and only valid until the next DrawLost or Draw call.
	DrawLost(dt float64) []int
}

// SubsetPopulation is an optional extension of SparsePopulation for
// MEMORYLESS loss processes: because no receiver carries temporal state,
// the population can draw the outcome of a transmission for a subset of
// receivers without simulating the rest. Engines use it to restrict later
// rounds to the still-active receivers, making a round cost O(p*active)
// instead of O(p*R). Populations with per-receiver state (Markov) or
// cross-receiver structure (FBT) must not implement it; the engines fall
// back to a full draw plus an intersection for those. Memorylessness also
// lets a whole round be drawn at once: DrawExceeding enumerates only the
// receivers a round leaves with more than t misses, so the field draws a
// group's data round when it consolidates, at O(tail * R) instead of
// O(p * R) per packet.
type SubsetPopulation interface {
	SparsePopulation
	// DrawLostAmong returns the members of among (ascending, no
	// duplicates) that miss a packet sent now, in ascending order. The
	// returned slice is owned by the population, is only valid until the
	// next Draw* call, and must not alias among.
	DrawLostAmong(dt float64, among []int) []int
	// DrawExceeding draws a round in which every packet of the seq bitmap
	// sent went once to every receiver. It appends to ids, ascending, the
	// receivers that miss more than t of those packets, and to missed
	// each one's missed seqs (a subset of sent); t < 0 enumerates every
	// receiver. Receivers with at most t misses are never drawn.
	DrawExceeding(sent uint64, t int, ids []int, missed []uint64) ([]int, []uint64)
}

// Independent is a Population of mutually independent per-receiver
// processes (homogeneous or heterogeneous).
type Independent struct {
	procs []Process
}

// NewIndependent wraps per-receiver processes into a Population.
func NewIndependent(procs []Process) *Independent {
	if len(procs) == 0 {
		panic("loss: empty population")
	}
	return &Independent{procs: procs}
}

// NewIndependentBernoulli builds a homogeneous Bernoulli population of r
// receivers sharing one seeded source of randomness.
func NewIndependentBernoulli(r int, p float64, rng *rand.Rand) *Independent {
	procs := make([]Process, r)
	for i := range procs {
		procs[i] = NewBernoulli(p, rng)
	}
	return NewIndependent(procs)
}

// NewIndependentMarkov builds a homogeneous burst-loss population.
func NewIndependentMarkov(r int, p, meanBurst, pktRate float64, rng *rand.Rand) *Independent {
	procs := make([]Process, r)
	for i := range procs {
		procs[i] = NewMarkov(p, meanBurst, pktRate, rng)
	}
	return NewIndependent(procs)
}

// R implements Population.
func (ip *Independent) R() int { return len(ip.procs) }

// Draw implements Population.
func (ip *Independent) Draw(dt float64, lost []bool) {
	if len(lost) != len(ip.procs) {
		panic(fmt.Sprintf("loss: Draw buffer %d != R %d", len(lost), len(ip.procs)))
	}
	for i, p := range ip.procs {
		lost[i] = p.Lost(dt)
	}
}

// Reset implements Population.
func (ip *Independent) Reset() {
	for _, p := range ip.procs {
		p.Reset()
	}
}

// BernoulliPopulation is a homogeneous independent-Bernoulli population
// with a sparse draw kernel: DrawLost enumerates the lost receivers by
// geometric skip-sampling, spending one RNG draw and one table lookup per
// LOST receiver instead of one uniform per receiver (a geoTable; only
// skips past its 1024 steps still cost a logarithm: 3 draws in 10^5 at
// p = 0.01, most draws below p = 10^-3). At p = 0.01 that is ~100x fewer
// RNG calls than the dense Independent population while remaining
// distributionally identical — the gaps between consecutive lost indices
// are exactly the Geometric(p) gaps of R independent Bernoulli trials.
type BernoulliPopulation struct {
	r   int
	p   float64
	rng *rand.Rand
	tab *geoTable // shared per p; fetched at the first sparse draw
	idx []int     // DrawLost scratch, reused across draws
}

// NewBernoulliPopulation returns a sparse homogeneous Bernoulli population
// of r receivers each losing packets independently with probability p.
func NewBernoulliPopulation(r int, p float64, rng *rand.Rand) *BernoulliPopulation {
	if r < 1 {
		panic(fmt.Sprintf("loss: BernoulliPopulation r = %d", r))
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("loss: BernoulliPopulation p = %g", p))
	}
	return &BernoulliPopulation{r: r, p: p, rng: rng}
}

// R implements Population.
func (bp *BernoulliPopulation) R() int { return bp.r }

// Reset implements Population (memoryless).
func (bp *BernoulliPopulation) Reset() {}

// DrawLost implements SparsePopulation: geometric jumps between lost
// receiver indices.
func (bp *BernoulliPopulation) DrawLost(float64) []int {
	bp.idx = bp.idx[:0]
	switch {
	case bp.p == 0:
		return bp.idx
	case bp.p == 1:
		for j := 0; j < bp.r; j++ {
			bp.idx = append(bp.idx, j)
		}
		return bp.idx
	}
	bp.idx = bp.table().sample(bp.idx, nil, bp.r, bp.rng)
	return bp.idx
}

// DrawLostAmong implements SubsetPopulation: the same geometric jumps, but
// over positions of the among list, so a draw restricted to A receivers
// costs O(p*A) regardless of R. Each member of among is an independent
// Bernoulli(p) trial, exactly as in the full draw.
func (bp *BernoulliPopulation) DrawLostAmong(_ float64, among []int) []int {
	bp.idx = bp.idx[:0]
	switch {
	case bp.p == 0:
		return bp.idx
	case bp.p == 1:
		bp.idx = append(bp.idx, among...)
		return bp.idx
	}
	bp.idx = bp.table().sample(bp.idx, among, len(among), bp.rng)
	return bp.idx
}

// DrawExceeding implements SubsetPopulation. Each receiver's misses among
// the n = popcount(sent) packets are Binomial(n, p), independently of
// every other receiver, so the receivers with more than t misses are a
// Bernoulli(tail) subset of [0, R) at tail = P(Bin(n, p) > t), found by
// geometric skips. Each one's count c is drawn from the pmf conditioned on
// c > t with one Float64, and its missed seqs are a uniform c-subset of
// sent, picked by Floyd's algorithm.
func (bp *BernoulliPopulation) DrawExceeding(sent uint64, t int, ids []int, missed []uint64) ([]int, []uint64) {
	var seqs [64]uint8
	n := 0
	for s := sent; s != 0; s &= s - 1 {
		seqs[n] = uint8(bits.TrailingZeros64(s))
		n++
	}
	t = max(t, -1)
	if t >= n {
		return ids, missed
	}
	var pmf, qpow [65]float64 // pmf[c] = C(n, c) p^c (1-p)^(n-c); qpow[i] = (1-p)^i
	qpow[0] = 1
	for i := 1; i <= n; i++ {
		qpow[i] = qpow[i-1] * (1 - bp.p)
	}
	tail, choose, ppow := 0.0, 1.0, 1.0
	for c := 0; c <= n; c++ {
		pmf[c] = choose * ppow * qpow[n-c]
		choose = choose * float64(n-c) / float64(c+1)
		ppow *= bp.p
		if c > t {
			tail += pmf[c]
		}
	}
	if t < 0 {
		tail = 1
	}
	var tab *geoTable // nil when tail is 0 or 1 and the skips draw nothing
	if tail > 0 && tail < 1 {
		tab = geoTableFor(tail, tailDepth(tail))
	}
	for j := -1; ; {
		if tab != nil {
			j = tab.next(j, bp.r, bp.rng)
		} else {
			j = geoNext(j, bp.r, tail, 0, bp.rng)
		}
		if j >= bp.r {
			break
		}
		c := t + 1
		for u := bp.rng.Float64() * tail; c < n && u >= pmf[c]; c++ {
			u -= pmf[c]
		}
		bm := sent
		if c < n {
			bm = floydSubset(bp.rng, &seqs, n, c)
		}
		ids = append(ids, j)
		missed = append(missed, bm)
	}
	return ids, missed
}

// floydSubset returns a uniform c-subset of seqs[:n] as a seq bitmap, by
// Floyd's algorithm. Its picks are rng.Int63n(i+1), i = n-c .. n-1, bit for
// bit and draw for draw, without a division: a draw above Int63n's bound
// is rejected, and the remainder comes from multiply-high by
// floor((2^64-1)/(i+1)), whose quotient falls short by at most one. For a
// power of two the bound rejects nothing and the remainder is Int63n's
// mask.
func floydSubset(rng *rand.Rand, seqs *[64]uint8, n, c int) uint64 {
	var bm uint64
	for i := n - c; i < n; i++ {
		m := uint64(i + 1)
		d := &floydDivs[m]
		v := uint64(rng.Int63())
		for v > d.bound {
			v = uint64(rng.Int63())
		}
		q, _ := bits.Mul64(v, d.inv)
		v -= q * m
		v -= m & uint64(int64(m-1-v)>>63) // v < 2m: one branch-free correction
		s := uint64(1) << seqs[v]
		if bm&s != 0 {
			s = 1 << seqs[i]
		}
		bm |= s
	}
	return bm
}

// floydDivs[n] holds Int63n's rejection bound and floor((2^64-1)/n) for n
// in [1, 64].
var floydDivs = func() (d [65]struct{ bound, inv uint64 }) {
	for n := uint64(1); n <= 64; n++ {
		d[n].bound = 1<<63 - 1 - (1<<63)%n
		d[n].inv = ^uint64(0) / n
	}
	return d
}()

// table returns the skip table for 0 < p < 1. Fetching it here rather than
// in the constructor keeps populations that are built but never drawn
// from, or only at p = 0 or 1, from paying for one.
func (bp *BernoulliPopulation) table() *geoTable {
	if bp.tab == nil {
		bp.tab = geoTableFor(bp.p, geoMaxSkip)
	}
	return bp.tab
}

// Draw implements Population by scattering DrawLost into the dense buffer,
// so dense and sparse callers observe the same loss process.
func (bp *BernoulliPopulation) Draw(dt float64, lost []bool) {
	if len(lost) != bp.r {
		panic(fmt.Sprintf("loss: Draw buffer %d != R %d", len(lost), bp.r))
	}
	for i := range lost {
		lost[i] = false
	}
	for _, j := range bp.DrawLost(dt) {
		lost[j] = true
	}
}

// MarkovPopulation is a homogeneous independent two-state Markov ("burst")
// population with a sparse draw kernel. The chain of Markov.Lost leaves a
// receiver in state 1 exactly when its last packet was lost, so the whole
// population state is the (small, ~p*R) set of receivers lost on the
// previous draw. A draw then costs O(p*R): the state-1 members are tried
// individually at P11(dt), and the state-0 complement is skip-sampled
// geometrically at the small P01(dt), exactly reproducing R independent
// chains without touching the ~(1-p)*R untouched receivers.
type MarkovPopulation struct {
	r      int
	chain  *Markov // transition probabilities; its own state is unused
	rng    *rand.Rand
	state1 []int // receivers in the loss state, ascending
	idx    []int // DrawLost result scratch
}

// NewMarkovPopulation returns a sparse homogeneous burst-loss population;
// the parameters match NewMarkov/NewIndependentMarkov.
func NewMarkovPopulation(r int, p, meanBurst, pktRate float64, rng *rand.Rand) *MarkovPopulation {
	if r < 1 {
		panic(fmt.Sprintf("loss: MarkovPopulation r = %d", r))
	}
	mp := &MarkovPopulation{r: r, chain: NewMarkov(p, meanBurst, pktRate, rng), rng: rng}
	mp.Reset()
	return mp
}

// R implements Population.
func (mp *MarkovPopulation) R() int { return mp.r }

// Reset implements Population: re-draw every receiver's state from the
// stationary distribution, i.e. skip-sample the state-1 set at pi1.
func (mp *MarkovPopulation) Reset() {
	mp.state1 = geoSample(mp.state1[:0], mp.r, mp.chain.pi1, mp.rng)
}

// DrawLost implements SparsePopulation.
func (mp *MarkovPopulation) DrawLost(dt float64) []int {
	p11 := mp.chain.P11(dt)
	p01 := mp.chain.P01(dt)
	mp.idx = mp.idx[:0]

	// Survivors drop to state 0 and the lost set IS the next state-1 set,
	// so merge the two lost streams (both ascending) directly into idx.
	// State-0 receivers are skip-sampled over their positions in the
	// complement of state1; position q maps to receiver id q+si where si
	// counts the state-1 members below it (monotone in q, one fused walk).
	c0 := mp.r - len(mp.state1)
	logq := 0.0
	if p01 > 0 && p01 < 1 {
		logq = math.Log1p(-p01)
	}
	si := 0 // state1 members consumed by the position mapping
	mi := 0 // state1 members merged into idx
	q := geoNext(-1, c0, p01, logq, mp.rng)
	for q < c0 {
		for si < len(mp.state1) && mp.state1[si] <= q+si {
			si++
		}
		id := q + si
		// Emit state-1 losses below id first to keep idx ascending.
		for ; mi < si; mi++ {
			if mp.rng.Float64() < p11 {
				mp.idx = append(mp.idx, mp.state1[mi])
			}
		}
		mp.idx = append(mp.idx, id)
		q = geoNext(q, c0, p01, logq, mp.rng)
	}
	for ; mi < len(mp.state1); mi++ {
		if mp.rng.Float64() < p11 {
			mp.idx = append(mp.idx, mp.state1[mi])
		}
	}
	mp.state1 = append(mp.state1[:0], mp.idx...)
	return mp.idx
}

// Draw implements Population by scattering DrawLost, so dense and sparse
// callers observe the same loss process.
func (mp *MarkovPopulation) Draw(dt float64, lost []bool) {
	if len(lost) != mp.r {
		panic(fmt.Sprintf("loss: Draw buffer %d != R %d", len(lost), mp.r))
	}
	for i := range lost {
		lost[i] = false
	}
	for _, j := range mp.DrawLost(dt) {
		lost[j] = true
	}
}
