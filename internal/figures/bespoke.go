package figures

import (
	"fmt"
	"math/rand"

	"rmfec/internal/gf256"
	"rmfec/internal/hostperf"
	"rmfec/internal/loss"
	"rmfec/internal/mcrun"
	"rmfec/internal/sim"
)

// The two figures that are not curves over R or p: Fig 1 times this
// machine's coder, and Fig 14 is a histogram of burst lengths.
func init() {
	register("fig1", fig1)
	register("fig14", fig14)
}

// fig1: coding and decoding rates versus redundancy h/k for k = 7, 20, 100
// with 1 KByte packets, timed by hostperf.Coder (each k's points
// interleaved, best of several windows): encode is the number of
// data packets processed per second while producing h parities per k,
// decode the number while reconstructing min(h, k) lost data packets. The
// figure's 1/(k*h) shape is hardware-independent even though the absolute
// rates reflect this machine rather than a Pentium 133. The title names
// the gf256 kernel that ran (avx2 or portable), so a Fig-1 number says
// which one produced it.
func fig1(opt Options) (*Figure, error) {
	fig := &Figure{
		ID:     "fig1",
		Title:  "Encoding/decoding speed vs redundancy, P = 1 KByte, gf256 kernel " + gf256.Kernel(),
		XLabel: "redundancy h/k [%]",
		YLabel: "rate [packets/s]",
		YLog:   true,
	}
	packetSize := 1024
	if opt.Quick {
		packetSize = 256
	}
	redundancies := []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
	for _, k := range []int{7, 20, 100} {
		// At small k neighbouring redundancies round to the same h
		// (k = 7: 5 %, 10 % and 20 % all give h = 1); each h is timed once.
		var pts []hostperf.CoderPoint
		for _, red := range redundancies {
			if h := max(int(red*float64(k)+0.5), 1); k+h <= 255 && (len(pts) == 0 || pts[len(pts)-1].H != h) {
				pts = append(pts, hostperf.CoderPoint{K: k, H: h, Lose: min(h, k)})
			}
		}
		e, d, err := hostperf.Coder(packetSize, pts...)
		if err != nil {
			return nil, err
		}
		enc := Series{Name: fmt.Sprintf("encoding k=%d", k)}
		dec := Series{Name: fmt.Sprintf("decoding k=%d", k)}
		for i, p := range pts {
			x := 100 * float64(p.H) / float64(k)
			enc.X = append(enc.X, x)
			enc.Y = append(enc.Y, float64(k)*1e6/e[i])
			dec.X = append(dec.X, x)
			dec.Y = append(dec.Y, float64(k)*1e6/d[i])
		}
		fig.Series = append(fig.Series, enc, dec)
	}
	return fig, nil
}

// fig14: distribution of consecutive losses at one receiver, Bernoulli vs
// burst (mean length 2), p = 0.01, 25 pkt/s.
func fig14(opt Options) (*Figure, error) {
	packets := 1_000_000
	if opt.Quick {
		packets = 100_000
	}
	rng := func(label string) *rand.Rand {
		return rand.New(rand.NewSource(mcrun.DeriveSeed(opt.Seed, label)))
	}
	census := mcrun.Run(opt.Parallel, []func() sim.BurstHistogram{
		func() sim.BurstHistogram {
			return sim.BurstCensus(loss.NewBernoulli(lossP, rng("fig14/bernoulli")), 0.040, packets)
		},
		func() sim.BurstHistogram {
			return sim.BurstCensus(loss.NewMarkov(lossP, 2, 25, rng("fig14/markov-b=2")), 0.040, packets)
		},
	})
	bern, markov := census[0], census[1]

	fig := &Figure{
		ID:         "fig14",
		Title:      "Burst length distribution, p = 0.01",
		XLabel:     "burst length [packets]",
		YLabel:     "occurrences",
		YLog:       true,
		SimSamples: 2 * packets,
	}
	toSeries := func(name string, h sim.BurstHistogram) Series {
		s := Series{Name: name}
		for _, l := range h.Lengths() {
			s.X = append(s.X, float64(l))
			s.Y = append(s.Y, float64(h[l]))
		}
		return s
	}
	fig.Series = []Series{
		toSeries("no burst loss", bern),
		toSeries("burst loss, b = 2", markov),
	}
	return fig, nil
}
