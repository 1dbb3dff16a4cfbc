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
	// DrawLost is Draw reporting the indices of the receivers that miss
	// the packet, ascending without duplicates. The returned slice is
	// owned by the population and only valid until the next DrawLost or
	// Draw call. Sparse kernels (Bernoulli, Markov, FBT) spend time
	// proportional to the losses; Independent and Tree scan a dense draw.
	DrawLost(dt float64) []int
	// Reset re-initialises all receiver state.
	Reset()
}

// SubsetPopulation is an optional extension of Population for MEMORYLESS,
// homogeneous loss: no receiver carries temporal state and all lose alike,
// so the population can draw the outcome of a transmission for a subset of
// receivers without simulating the rest, and receivers that hold the same
// number of a round's packets are exchangeable. Engines use the first to
// restrict later rounds to the still-active receivers, at O(p*active)
// instead of O(p*R) per round, and the field uses the second to keep a
// group's deficient receivers as counts per held-shard number, at O(k)
// binomial draws per round at any R. Populations with per-receiver state
// (Markov), cross-receiver structure (FBT, Tree) or per-receiver processes
// (Independent) must not implement it.
type SubsetPopulation interface {
	Population
	// DrawLostAmong returns the members of among (ascending, no
	// duplicates) that miss a packet sent now, in ascending order. The
	// returned slice is owned by the population, is only valid until the
	// next Draw* call, and must not alias among.
	DrawLostAmong(dt float64, among []int) []int
	// DrawRound draws a round in which n packets went once to every
	// receiver: it sets bins[c] to the number of receivers that hold
	// exactly c of them for c < k, clears the rest of bins, and returns
	// the sum, the receivers short of k.
	DrawRound(n, k int, bins *[65]int) int
	// DrawLostCount returns how many of m receivers miss a packet sent now.
	DrawLostCount(m int) int
	// DrawMissed returns a uniform c-subset of the seq bitmap sent (all
	// of it when c >= its popcount): which c of a round's packets a
	// receiver that missed c of them missed.
	DrawMissed(sent uint64, c int) uint64
}

// scatter is the Draw of a population that enumerates its losses: it marks
// lost, the receivers of one DrawLost, in dst (length r), so dense and
// sparse callers observe the same loss process.
func scatter(dst []bool, r int, lost []int) {
	if len(dst) != r {
		panic(fmt.Sprintf("loss: Draw buffer %d != R %d", len(dst), r))
	}
	clear(dst)
	for _, j := range lost {
		dst[j] = true
	}
}

// denseScan is the DrawLost of a population that can only draw densely:
// one Draw into a reused buffer, then an O(R) scan.
type denseScan struct {
	lost []bool
	idx  []int
}

func (d *denseScan) drawLost(pop Population, dt float64) []int {
	if d.lost == nil {
		d.lost = make([]bool, pop.R())
	}
	pop.Draw(dt, d.lost)
	d.idx = d.idx[:0]
	for j, l := range d.lost {
		if l {
			d.idx = append(d.idx, j)
		}
	}
	return d.idx
}

// Independent is a Population of mutually independent per-receiver
// processes (homogeneous or heterogeneous).
type Independent struct {
	procs []Process
	scan  denseScan
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

// DrawLost implements Population by a dense Draw and a scan.
func (ip *Independent) DrawLost(dt float64) []int { return ip.scan.drawLost(ip, dt) }

// Reset implements Population.
func (ip *Independent) Reset() {
	for _, p := range ip.procs {
		p.Reset()
	}
}

// BernoulliPopulation is a homogeneous independent-Bernoulli population
// with a sparse draw kernel: DrawLost enumerates the lost receivers by
// geometric skip-sampling, spending one RNG draw and one logarithm per
// LOST receiver instead of one uniform per receiver. At p = 0.01 that is
// ~100x fewer RNG calls than the dense Independent population while
// remaining distributionally identical — the gaps between consecutive
// lost indices are exactly the Geometric(p) gaps of R independent
// Bernoulli trials.
type BernoulliPopulation struct {
	r   int
	p   float64
	rng *rand.Rand
	idx []int // DrawLost scratch, reused across draws
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

// DrawLost implements Population: geometric jumps between lost
// receiver indices.
func (bp *BernoulliPopulation) DrawLost(float64) []int {
	bp.idx = geoSample(bp.idx[:0], nil, bp.r, bp.p, bp.rng)
	return bp.idx
}

// DrawLostAmong implements SubsetPopulation: the same geometric jumps, but
// over positions of the among list, so a draw restricted to A receivers
// costs O(p*A) regardless of R. Each member of among is an independent
// Bernoulli(p) trial, exactly as in the full draw.
func (bp *BernoulliPopulation) DrawLostAmong(_ float64, among []int) []int {
	bp.idx = geoSample(bp.idx[:0], among, len(among), bp.p, bp.rng)
	return bp.idx
}

// DrawRound implements SubsetPopulation for n <= 64. Each receiver holds
// Bin(n, 1-p) of the round, independently of every other, so the receivers
// short of k number Bin(R, P(held < k)); conditional binomials then split
// them over c = k-1 down to 0, each at pmf[c] over the mass left at or
// below c.
func (bp *BernoulliPopulation) DrawRound(n, k int, bins *[65]int) int {
	*bins = [65]int{}
	top := min(k, n+1) // held counts c < top are short of k
	if top <= 0 {
		return 0
	}
	// pmf[c] = C(n, c) (1-p)^c p^(n-c) by running products; cum[c] = P(held <= c).
	var pmf, cum, ppow [65]float64
	ppow[0] = 1
	for i := 1; i <= n; i++ {
		ppow[i] = ppow[i-1] * bp.p
	}
	qpow, choose, sum := 1.0, 1.0, 0.0
	for c := 0; c < top; c++ {
		pmf[c] = choose * qpow * ppow[n-c]
		sum += pmf[c]
		cum[c] = sum
		choose, qpow = choose*float64(n-c)/float64(c+1), qpow*(1-bp.p)
	}
	if top > n {
		cum[n] = 1 // every receiver holds at most n < k
	}
	short := binomial(bp.rng, bp.r, cum[top-1])
	rest := short
	for c := top - 1; c > 0 && rest > 0; c-- {
		bins[c] = binomial(bp.rng, rest, pmf[c]/cum[c])
		rest -= bins[c]
	}
	bins[0] = rest
	return short
}

// DrawLostCount implements SubsetPopulation: Bin(m, p).
func (bp *BernoulliPopulation) DrawLostCount(m int) int { return binomial(bp.rng, m, bp.p) }

// DrawMissed implements SubsetPopulation by Floyd's algorithm over the
// seqs of sent.
func (bp *BernoulliPopulation) DrawMissed(sent uint64, c int) uint64 {
	var seqs [64]uint8
	n := 0
	for s := sent; s != 0; s &= s - 1 {
		seqs[n] = uint8(bits.TrailingZeros64(s))
		n++
	}
	if c >= n {
		return sent
	}
	var bm uint64
	for i := n - c; i < n; i++ {
		s := uint64(1) << seqs[bp.rng.Int63n(int64(i+1))]
		if bm&s != 0 {
			s = 1 << seqs[i]
		}
		bm |= s
	}
	return bm
}

// Draw implements Population by scattering DrawLost.
func (bp *BernoulliPopulation) Draw(dt float64, lost []bool) { scatter(lost, bp.r, bp.DrawLost(dt)) }

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
	mp.state1 = geoSample(mp.state1[:0], nil, mp.r, mp.chain.pi1, mp.rng)
}

// DrawLost implements Population.
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

// Draw implements Population by scattering DrawLost.
func (mp *MarkovPopulation) Draw(dt float64, lost []bool) { scatter(lost, mp.r, mp.DrawLost(dt)) }
