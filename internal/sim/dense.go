package sim

import (
	"fmt"

	"rmfec/internal/loss"
)

// This file retains the pre-PR dense-scan engines verbatim: every
// transmission fills a []bool of length R and the recovery bookkeeping
// rescans all receivers. They exist so the statistical-equivalence tests
// can pin the sparse engines against them. They are not used by the
// figures.

// DenseNoFEC is the pre-PR reference implementation of NoFEC.
func DenseNoFEC(pop loss.Population, tm Timing, packets int) Estimate {
	tm.validate()
	if packets < 1 {
		panic("sim: packets < 1")
	}
	r := pop.R()
	lost := make([]bool, r)
	pending := make([]bool, r)
	samples := make([]float64, 0, packets)
	for range packets {
		pop.Reset()
		for j := range pending {
			pending[j] = true
		}
		remaining := r
		tx := 0
		for remaining > 0 {
			tx++
			pop.Draw(tm.Delta+tm.T, lost)
			for j := range pending {
				if pending[j] && !lost[j] {
					pending[j] = false
					remaining--
				}
			}
		}
		samples = append(samples, float64(tx))
	}
	return estimate(samples)
}

// DenseLayered is the pre-PR reference implementation of Layered.
func DenseLayered(pop loss.Population, k, h int, tm Timing, groups int) Estimate {
	tm.validate()
	if k < 1 || h < 0 {
		panic(fmt.Sprintf("sim: Layered(k=%d, h=%d)", k, h))
	}
	if groups < 1 {
		panic("sim: groups < 1")
	}
	r := pop.R()
	n := k + h
	lost := make([]bool, r)
	missing := make([]bool, r*k) // missing[j*k+i]: receiver j lacks packet i
	lostCount := make([]int, r)
	pending := make([]bool, k)
	samples := make([]float64, 0, groups)

	for range groups {
		pop.Reset()
		for i := range missing {
			missing[i] = true
		}
		for i := range pending {
			pending[i] = true
		}
		dataTx := 0
		firstRound := true
		for {
			nPending := 0
			for _, p := range pending {
				if p {
					nPending++
				}
			}
			if nPending == 0 {
				break
			}
			dataTx += nPending

			for j := range lostCount {
				lostCount[j] = 0
			}
			for s := 0; s < n; s++ {
				dt := tm.Delta
				if s == 0 && !firstRound {
					dt = tm.Delta + tm.T
				}
				pop.Draw(dt, lost)
				for j := range lost {
					if lost[j] {
						lostCount[j]++
					} else if s < k && pending[s] {
						missing[j*k+s] = false
					}
				}
			}
			firstRound = false
			// A decodable block recovers every pending packet.
			for j := 0; j < r; j++ {
				if lostCount[j] <= h {
					base := j * k
					for i := 0; i < k; i++ {
						if pending[i] {
							missing[base+i] = false
						}
					}
				}
			}
			for i := 0; i < k; i++ {
				if !pending[i] {
					continue
				}
				still := false
				for j := 0; j < r; j++ {
					if missing[j*k+i] {
						still = true
						break
					}
				}
				pending[i] = still
			}
		}
		samples = append(samples, float64(n)/float64(k)*float64(dataTx)/float64(k))
	}
	return estimate(samples)
}

// DenseIntegrated1 is the pre-PR reference implementation of Integrated1.
func DenseIntegrated1(pop loss.Population, k int, tm Timing, groups int) Estimate {
	tm.validate()
	if k < 1 {
		panic(fmt.Sprintf("sim: Integrated1(k=%d)", k))
	}
	if groups < 1 {
		panic("sim: groups < 1")
	}
	r := pop.R()
	lost := make([]bool, r)
	received := make([]int, r)
	samples := make([]float64, 0, groups)
	for range groups {
		pop.Reset()
		for j := range received {
			received[j] = 0
		}
		remaining := r
		tx := 0
		for remaining > 0 {
			tx++
			pop.Draw(tm.Delta, lost)
			for j := range lost {
				if received[j] < k && !lost[j] {
					received[j]++
					if received[j] == k {
						remaining--
					}
				}
			}
		}
		samples = append(samples, float64(tx)/float64(k))
	}
	return estimate(samples)
}

// DenseIntegrated2 is the pre-PR reference implementation of Integrated2.
func DenseIntegrated2(pop loss.Population, k int, tm Timing, groups int) Estimate {
	tm.validate()
	if k < 1 {
		panic(fmt.Sprintf("sim: Integrated2(k=%d)", k))
	}
	if groups < 1 {
		panic("sim: groups < 1")
	}
	r := pop.R()
	lost := make([]bool, r)
	deficit := make([]int, r)
	samples := make([]float64, 0, groups)
	for range groups {
		pop.Reset()
		for j := range deficit {
			deficit[j] = k
		}
		tx := 0
		firstRound := true
		for {
			l := 0
			for _, d := range deficit {
				if d > l {
					l = d
				}
			}
			if l == 0 {
				break
			}
			for s := 0; s < l; s++ {
				dt := tm.Delta
				if s == 0 && !firstRound {
					dt = tm.Delta + tm.T
				}
				tx++
				pop.Draw(dt, lost)
				for j := range lost {
					if deficit[j] > 0 && !lost[j] {
						deficit[j]--
					}
				}
			}
			firstRound = false
		}
		samples = append(samples, float64(tx)/float64(k))
	}
	return estimate(samples)
}
