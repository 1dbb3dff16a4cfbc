// Package sim contains the Monte-Carlo engines behind the paper's
// simulated figures: the expected number of transmissions per packet E[M]
// for reliable multicast without FEC, with layered FEC, and with the two
// integrated FEC variants of Section 4.2, under any loss.Population
// (independent, heterogeneous, shared full-binary-tree or bursty), plus the
// burst-length census of Fig. 14.
//
// Timing follows Fig. 13: packets within a block are spaced Delta seconds
// apart and retransmission rounds add a feedback gap T, which is what makes
// temporally-correlated loss interact with the recovery scheme. Spatial
// loss models ignore the timestamps, so the same engines serve Sections 3,
// 4.1 and 4.2.
//
// The engines track per-receiver recovery state sparsely: a transmission's
// outcome is consumed as the list of LOST receivers (Population.DrawLost,
// a dense scan for the populations that only draw densely) and the
// bookkeeping per transmission costs O(losses), not O(R). With the sparse
// Bernoulli and FBT draw kernels this makes per-sample cost scale with
// p*R instead of R. The dense-scan engines they replaced survive as
// recorded reference runs, testdata/dense_witness.tsv, which the tests
// compare the sparse engines against.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"rmfec/internal/loss"
)

// Timing holds the transmission timing parameters of Fig. 13 in seconds.
type Timing struct {
	Delta float64 // spacing between consecutive packet transmissions
	T     float64 // sender-side gap before a retransmission round (RTT/feedback delay)
}

// PaperTiming is the Section 4.2 configuration: 25 packets/s (Delta = 40 ms,
// Bolot's loaded INRIA-UCL path) and T = 300 ms.
var PaperTiming = Timing{Delta: 0.040, T: 0.300}

func (tm Timing) validate() {
	if tm.Delta <= 0 || tm.T < 0 || math.IsNaN(tm.Delta) || math.IsNaN(tm.T) {
		panic(fmt.Sprintf("sim: invalid timing %+v", tm))
	}
}

// Estimate is a Monte-Carlo estimate of E[M].
type Estimate struct {
	Mean    float64 // sample mean of transmissions per packet
	StdErr  float64 // standard error of the mean
	Samples int     // number of simulated packets or transmission groups
}

// welford is a streaming mean/variance accumulator (Welford's algorithm),
// so the engines need not retain a per-sample slice at high sample counts.
type welford struct {
	n    int
	mean float64
	m2   float64
}

func (w *welford) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *welford) estimate() Estimate {
	if w.n == 0 {
		panic("sim: no samples")
	}
	se := 0.0
	if w.n > 1 {
		se = math.Sqrt(w.m2 / float64(w.n-1) / float64(w.n))
	}
	return Estimate{Mean: w.mean, StdErr: se, Samples: w.n}
}

// estimate summarises a sample slice; the engines stream through welford
// directly, this form remains for small callers and tests.
func estimate(samples []float64) Estimate {
	if len(samples) == 0 {
		panic("sim: no samples")
	}
	var w welford
	for _, s := range samples {
		w.add(s)
	}
	return w.estimate()
}

// lostSource draws lost-index sets from any Population, restricted to a
// subset of receivers where the population supports it.
type lostSource struct {
	pop    loss.Population
	subset loss.SubsetPopulation // nil when pop cannot restrict its draw
	sub    []int                 // drawLostAmong intersection scratch
}

func newLostSource(pop loss.Population) *lostSource {
	sub, _ := pop.(loss.SubsetPopulation)
	return &lostSource{pop: pop, subset: sub}
}

// drawLostAmong returns the members of among (ascending, no duplicates)
// lost by a transmission sent now. Memoryless populations draw only the
// subset; everything else must still advance every receiver, so the full
// draw runs and is intersected with among. The result is ascending and
// valid until the next draw call; among must not alias a previous result.
func (ls *lostSource) drawLostAmong(dt float64, among []int) []int {
	if ls.subset != nil {
		return ls.subset.DrawLostAmong(dt, among)
	}
	lost := ls.pop.DrawLost(dt)
	ls.sub = ls.sub[:0]
	li := 0
	for _, j := range among {
		for li < len(lost) && lost[li] < j {
			li++
		}
		if li < len(lost) && lost[li] == j {
			ls.sub = append(ls.sub, j)
		}
	}
	return ls.sub
}

// NoFEC simulates plain ARQ: each packet is multicast and re-multicast,
// with successive transmissions of the same packet spaced Delta+T, until
// every receiver holds it. Returns the per-packet transmission count.
//
// The pending set is tracked as a shrinking index list: after the first
// transmission only the receivers that lost it remain, and later
// transmissions draw losses only among the pending receivers, so a
// retransmission costs O(p*pending) for memoryless populations (and
// O(losses + pending) otherwise) instead of O(R).
func NoFEC(pop loss.Population, tm Timing, packets int) Estimate {
	tm.validate()
	if packets < 1 {
		panic("sim: packets < 1")
	}
	src := newLostSource(pop)
	var pending []int
	var w welford
	for range packets {
		pop.Reset()
		pending = pending[:0]
		all := true // pending is implicitly every receiver before tx 1
		tx := 0
		for all || len(pending) > 0 {
			tx++
			if all {
				pending = append(pending[:0], src.pop.DrawLost(tm.Delta+tm.T)...)
				all = false
				continue
			}
			// Only a pending receiver that loses again stays pending.
			pending = append(pending[:0], src.drawLostAmong(tm.Delta+tm.T, pending)...)
		}
		w.add(float64(tx))
	}
	return w.estimate()
}

// maskWords returns the number of uint64 words needed for a k-bit mask.
func maskWords(k int) int { return (k + 63) / 64 }

// Layered simulates the layered-FEC architecture of Section 3.1 with TG
// size k and h parities per block (n = k+h): every round transmits a full
// FEC block at spacing Delta (a retransmitted packet keeps its slot, the
// other slots carry other traffic of the stream plus fresh parities); a
// data packet is recovered when its own slot arrives or when at most h of
// the round's n slots are lost so the block decodes. Rounds are separated
// by the feedback gap Delta+T. The returned metric is E[M] including the
// n/k parity overhead of every data transmission, matching Eq. (3).
//
// Receiver state is sparse: a receiver that loses at most h of a round's n
// slots decodes the whole block and leaves, so the active set after round
// one is the (tiny) subset of receivers inside the round's loss lists with
// more than h losses. Untouched receivers never cost anything, and rounds
// after the first draw losses only among the active receivers (memoryless
// populations restrict the draw itself; stateful ones intersect), so a
// retransmission round costs O(active), not O(R).
func Layered(pop loss.Population, k, h int, tm Timing, groups int) Estimate {
	tm.validate()
	if k < 1 || h < 0 {
		panic(fmt.Sprintf("sim: Layered(k=%d, h=%d)", k, h))
	}
	if groups < 1 {
		panic("sim: groups < 1")
	}
	r := pop.R()
	n := k + h
	wpm := maskWords(k)
	src := newLostSource(pop)

	lostCount := make([]int, r)       // per-round losses, reset via touched
	lostMask := make([]uint64, r*wpm) // per-round lost data slots, ditto
	var touched []int
	// Active receivers and their missing-packet masks, parallel slices
	// (wpm words per receiver). Before round one every receiver is
	// implicitly active with a full mask.
	var activeJ, nextJ []int
	var activeMask, nextMask []uint64
	pendingMask := make([]uint64, wpm)
	fullMask := make([]uint64, wpm)
	for s := 0; s < k; s++ {
		fullMask[s/64] |= 1 << (s % 64)
	}

	var w welford
	for range groups {
		pop.Reset()
		activeJ = activeJ[:0]
		all := true
		copy(pendingMask, fullMask)
		dataTx := 0
		firstRound := true
		for all || len(activeJ) > 0 {
			nPending := 0
			for _, word := range pendingMask {
				nPending += bits.OnesCount64(word)
			}
			dataTx += nPending

			touched = touched[:0]
			for s := 0; s < n; s++ {
				dt := tm.Delta
				if s == 0 && !firstRound {
					dt = tm.Delta + tm.T
				}
				var lost []int
				if all {
					lost = src.pop.DrawLost(dt)
				} else {
					// Receivers that already decoded left the group; only
					// the active ones' outcomes matter.
					lost = src.drawLostAmong(dt, activeJ)
				}
				for _, j := range lost {
					if lostCount[j] == 0 {
						touched = append(touched, j)
					}
					lostCount[j]++
					if s < k {
						lostMask[j*wpm+s/64] |= 1 << (s % 64)
					}
				}
			}
			firstRound = false

			// A receiver survives the round still missing something only if
			// it lost more than h slots (no decode) and kept missing at
			// least one pending data slot it lost again.
			nextJ = nextJ[:0]
			nextMask = nextMask[:0]
			if all {
				// touched follows draw order, so sort the (small) survivor
				// list to keep the active set ascending for subset draws.
				for _, j := range touched {
					if lostCount[j] <= h {
						continue
					}
					base := j * wpm
					for wi := 0; wi < wpm; wi++ {
						if lostMask[base+wi]&fullMask[wi] != 0 {
							nextJ = append(nextJ, j)
							break
						}
					}
				}
				sort.Ints(nextJ)
				for _, j := range nextJ {
					base := j * wpm
					for wi := 0; wi < wpm; wi++ {
						nextMask = append(nextMask, lostMask[base+wi]&fullMask[wi])
					}
				}
				all = false
			} else {
				for ai, j := range activeJ {
					if lostCount[j] <= h {
						continue
					}
					nz := false
					for wi := 0; wi < wpm; wi++ {
						if activeMask[ai*wpm+wi]&lostMask[j*wpm+wi] != 0 {
							nz = true
							break
						}
					}
					if nz {
						nextJ = append(nextJ, j)
						for wi := 0; wi < wpm; wi++ {
							nextMask = append(nextMask, activeMask[ai*wpm+wi]&lostMask[j*wpm+wi])
						}
					}
				}
			}
			activeJ, nextJ = nextJ, activeJ
			activeMask, nextMask = nextMask, activeMask

			for wi := range pendingMask {
				pendingMask[wi] = 0
			}
			for ai := range activeJ {
				for wi := 0; wi < wpm; wi++ {
					pendingMask[wi] |= activeMask[ai*wpm+wi]
				}
			}
			for _, j := range touched {
				lostCount[j] = 0
				for wi := 0; wi < wpm; wi++ {
					lostMask[j*wpm+wi] = 0
				}
			}
		}
		w.add(float64(n) / float64(k) * float64(dataTx) / float64(k))
	}
	return w.estimate()
}

// parityCounter is the sparse bookkeeping of integrated2: after t
// transmissions a receiver with c losses holds t-c packets of the block
// and is done once t-c = k. Only LOST draws touch state — receivers
// outside every loss list finish on schedule for free.
// cnt buckets receivers by loss count, so the number finishing at
// transmission t is cnt[t-k] and the largest remaining deficit is
// k - t + maxC.
type parityCounter struct {
	k       int
	lossCnt []int // per-receiver losses, reset via touched
	touched []int
	cnt     []int // cnt[c] = receivers with exactly c losses
	maxC    int   // largest loss count of any still-active receiver
}

func newParityCounter(r, k int) *parityCounter {
	return &parityCounter{k: k, lossCnt: make([]int, r), cnt: make([]int, 1, 64)}
}

// reset prepares for a new transmission group of r receivers.
func (pc *parityCounter) reset(r int) {
	for _, j := range pc.touched {
		pc.lossCnt[j] = 0
	}
	pc.touched = pc.touched[:0]
	pc.cnt = pc.cnt[:1]
	pc.cnt[0] = r
	pc.maxC = 0
}

// absorb records the lost receivers of transmission number t (1-based) and
// returns how many receivers completed the block at t.
func (pc *parityCounter) absorb(t int, lost []int) (done int) {
	for _, j := range lost {
		c := pc.lossCnt[j]
		if c < t-pc.k {
			continue // already holds k packets
		}
		if c == 0 {
			pc.touched = append(pc.touched, j)
		}
		pc.cnt[c]--
		pc.lossCnt[j] = c + 1
		if c+1 >= len(pc.cnt) {
			pc.cnt = append(pc.cnt, 0)
		}
		pc.cnt[c+1]++
		if c+1 > pc.maxC {
			pc.maxC = c + 1
		}
	}
	if t >= pc.k {
		return pc.cnt[t-pc.k]
	}
	return 0
}

// Integrated1 simulates the feedback-free integrated scheme of Section 4.2:
// the sender streams the k data packets and then parities, all spaced
// Delta, and a receiver leaves the group once it holds any k packets of the
// block; the sender stops when every receiver is done (idealised unbounded
// parities, a = 0).
//
// That is Integrated2 with no feedback gap (T = 0). Each Integrated2 round
// sends exactly the worst receiver's deficit, which falls by at most one
// per packet, so the last receiver completes on a round's last packet:
// back to back at spacing Delta, the rounds are one stream that stops at
// the same packet, with the same draws.
func Integrated1(pop loss.Population, k int, tm Timing, groups int) Estimate {
	tm.validate()
	m, _ := integrated2(pop, k, Timing{Delta: tm.Delta}, groups)
	return m
}

// Integrated2 simulates the hybrid-ARQ integrated scheme (protocol NP's
// generic form): round 1 sends the k data packets spaced Delta; each later
// round waits the feedback gap Delta+T and multicasts l parities, where l
// is the largest number of packets any receiver still misses (idealised
// single-NAK feedback, unbounded parities).
func Integrated2(pop loss.Population, k int, tm Timing, groups int) Estimate {
	m, _ := integrated2(pop, k, tm, groups)
	return m
}

// integrated2 is the sparse hybrid-ARQ core of Integrated1, Integrated2 and
// Integrated2Detailed; it also reports the rounds-per-group estimate.
func integrated2(pop loss.Population, k int, tm Timing, groups int) (m, rounds Estimate) {
	tm.validate()
	if k < 1 {
		panic(fmt.Sprintf("sim: integrated FEC with k=%d", k))
	}
	if groups < 1 {
		panic("sim: groups < 1")
	}
	r := pop.R()
	src := newLostSource(pop)
	pc := newParityCounter(r, k)
	var wm, wr welford
	for range groups {
		pop.Reset()
		pc.reset(r)
		remaining := r
		t := 0
		nRounds := 0
		firstRound := true
		for remaining > 0 {
			// Largest per-receiver deficit: the worst active receiver has
			// pc.maxC losses and therefore misses k - (t - maxC) packets.
			l := k - t + pc.maxC
			nRounds++
			for s := 0; s < l; s++ {
				dt := tm.Delta
				if s == 0 && !firstRound {
					dt = tm.Delta + tm.T
				}
				t++
				remaining -= pc.absorb(t, src.pop.DrawLost(dt))
			}
			firstRound = false
		}
		wm.add(float64(t) / float64(k))
		wr.add(float64(nRounds))
	}
	return wm.estimate(), wr.estimate()
}
