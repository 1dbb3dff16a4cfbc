package figures

import (
	"fmt"
	"math/bits"
	"math/rand"

	"rmfec/internal/loss"
	"rmfec/internal/mcrun"
	"rmfec/internal/model"
	"rmfec/internal/sim"
)

// The curve figures: E[M] or a processing rate over R or p. Each is a spec
// of points and curves, and spec.figure runs every one of them.
func init() {
	for id, build := range map[string]func(Options) spec{
		"fig3":  func(Options) spec { return figs3and4(2) },
		"fig4":  func(Options) spec { return figs3and4(7) },
		"fig5":  fig5,
		"fig6":  fig6,
		"fig7":  fig7,
		"fig8":  fig8,
		"fig9":  fig9,
		"fig10": fig10,
		"fig11": fig11,
		"fig12": fig12,
		"fig15": fig15,
		"fig16": fig16,
		"fig17": fig17,
		"fig18": fig18,
	} {
		register(id, func(opt Options) (*Figure, error) { return build(opt).figure(id, opt), nil })
	}
}

const lossP = 0.01 // the loss probability of Figs 3-7, 9-12, 14-18

// point is one x of a curve figure: the suffix of its Monte-Carlo seed
// labels, the receiver count R and the base sample count.
type point struct {
	x       float64
	label   string
	r       int
	samples int
}

// curve is one plotted series: either a closed form evaluated at each
// point, or a Monte-Carlo estimate whose engine RNG is seeded from the root
// seed and the label "<figure id>/<tag>/<point label>".
type curve struct {
	name   string
	closed func(pt point) float64
	tag    string
	mc     func(rng *rand.Rand, pt point) sim.Estimate
}

// spec is a curve figure: its metadata, its points and its curves.
type spec struct {
	meta   Figure
	points []point
	curves []curve
}

// figure evaluates every curve at every point. The Monte-Carlo points run
// on the deterministic parallel runner, each from its own derived seed, so
// the figure is the same for every worker count.
func (s spec) figure(id string, opt Options) *Figure {
	fig := s.meta
	fig.ID = id
	var jobs []func() sim.Estimate
	var cells []*float64
	for _, c := range s.curves {
		ser := Series{Name: c.name, Y: make([]float64, len(s.points))}
		for i, pt := range s.points {
			ser.X = append(ser.X, pt.x)
			if c.closed != nil {
				ser.Y[i] = c.closed(pt)
				continue
			}
			seed := mcrun.DeriveSeed(opt.Seed, id+"/"+c.tag+"/"+pt.label)
			jobs = append(jobs, func() sim.Estimate { return c.mc(rand.New(rand.NewSource(seed)), pt) })
			cells = append(cells, &ser.Y[i])
		}
		fig.Series = append(fig.Series, ser)
	}
	for i, e := range mcrun.Run(opt.Parallel, jobs) {
		*cells[i] = e.Mean
		fig.SimSamples += e.Samples
	}
	return &fig
}

// overR returns the metadata of a figure plotting E[M] over R.
func overR(title string) Figure {
	return Figure{Title: title, XLabel: "number of receivers R", YLabel: "transmissions E[M]", XLog: true}
}

// receiverPoints returns the points at the given receiver counts, labelled
// "r=<R>", each with samples(R) base samples.
func receiverPoints(grid []int, samples func(r int) int) []point {
	pts := make([]point, len(grid))
	for i, r := range grid {
		pts[i] = point{x: float64(r), label: fmt.Sprintf("r=%d", r), r: r, samples: samples(r)}
	}
	return pts
}

// closedPoints returns the points of the log-spaced population grid
// 1..10^6 (1-2-5 ladder) for a closed-form figure.
func closedPoints() []point {
	var grid []int
	for r := 1; r < 1_000_000; r *= 10 {
		grid = append(grid, r, 2*r, 5*r)
	}
	return receiverPoints(append(grid, 1_000_000), func(int) int { return 0 })
}

// noFEC is E[M] without FEC at p = 0.01.
func noFEC(pt point) float64 { return model.ExpectedTxNoFEC(pt.r, lossP) }

// integrated returns the integrated-FEC bound of Eq 6 (unbounded parities,
// a = 0) at p = 0.01.
func integrated(k int) func(pt point) float64 {
	return func(pt point) float64 { return model.ExpectedTxIntegrated(k, 0, pt.r, lossP) }
}

// layered returns the layered-FEC E[M] of Eq 3 at p = 0.01.
func layered(k, h int) func(pt point) float64 {
	return func(pt point) float64 { return model.ExpectedTxLayered(k, h, pt.r, lossP) }
}

// kFigure is "no FEC" and one curve of em per k = 7, 20, 100, over R.
func kFigure(title, name string, em func(k int) func(pt point) float64) spec {
	s := spec{meta: overR(title), points: closedPoints(), curves: []curve{{name: "no FEC", closed: noFEC}}}
	for _, k := range []int{7, 20, 100} {
		s.curves = append(s.curves, curve{name: fmt.Sprintf(name, k), closed: em(k)})
	}
	return s
}

// figs3and4: layered FEC vs no FEC for h = 2 (Fig 3) and h = 7 (Fig 4).
func figs3and4(h int) spec {
	return kFigure(fmt.Sprintf("Influence of k on layered FEC, p = %g, h = %d", lossP, h), "layered k=%d",
		func(k int) func(pt point) float64 { return layered(k, h) })
}

// fig5: no FEC vs layered vs the integrated lower bound, k = 7.
func fig5(Options) spec {
	return spec{
		meta:   overR("Layered FEC versus integrated FEC, k = 7, p = 0.01"),
		points: closedPoints(),
		curves: []curve{
			{name: "no FEC", closed: noFEC},
			{name: "layered (7,9)", closed: layered(7, 2)},
			{name: "integrated", closed: integrated(7)},
		},
	}
}

// fig6: integrated FEC with finite parity budgets (7,8), (7,9), (7,10)
// against the (7,inf) bound.
func fig6(Options) spec {
	s := spec{
		meta:   overR("Integrated FEC with k = 7 for different h, p = 0.01"),
		points: closedPoints(),
		curves: []curve{{name: "non-FEC", closed: noFEC}},
	}
	for _, h := range []int{1, 2, 3} {
		s.curves = append(s.curves, curve{name: fmt.Sprintf("(7,%d)", 7+h), closed: func(pt point) float64 {
			return model.ExpectedTxIntegratedFinite(7, h, 0, pt.r, lossP)
		}})
	}
	s.curves = append(s.curves, curve{name: "(7,inf)", closed: integrated(7)})
	return s
}

// fig7: influence of k on idealized integrated FEC over R.
func fig7(Options) spec {
	return kFigure("Influence of k on idealized integrated FEC, p = 0.01", "integr. FEC k=%d", integrated)
}

// fig8: influence of the loss probability on integrated FEC, R = 1000.
// Each point's x is its loss probability.
func fig8(Options) spec {
	s := spec{
		meta: Figure{
			Title:  "Influence of k on idealized integrated FEC, R = 1000",
			XLabel: "packet loss probability p",
			YLabel: "transmissions E[M]",
			XLog:   true,
		},
		curves: []curve{{name: "no FEC", closed: func(pt point) float64 { return model.ExpectedTxNoFEC(pt.r, pt.x) }}},
	}
	for _, p := range []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1} {
		s.points = append(s.points, point{x: p, r: 1000})
	}
	for _, k := range []int{7, 20, 100} {
		s.curves = append(s.curves, curve{name: fmt.Sprintf("integr. FEC k=%d", k), closed: func(pt point) float64 {
			return model.ExpectedTxIntegrated(k, 0, pt.r, pt.x)
		}})
	}
	return s
}

// heteroMix builds the two-class population of Section 3.3: a fraction
// alpha of receivers at p = 0.25, the rest at p = 0.01.
func heteroMix(r int, alpha float64) []model.Class {
	high := int(alpha * float64(r))
	return []model.Class{
		{P: 0.01, Count: r - high},
		{P: 0.25, Count: high},
	}
}

// heteroFigure is Figs 9 and 10: one curve of em per high-loss share.
func heteroFigure(title string, em func(classes []model.Class) float64) spec {
	s := spec{meta: overR(title), points: closedPoints()}
	for _, alpha := range []float64{0, 0.01, 0.05, 0.25} {
		s.curves = append(s.curves, curve{name: fmt.Sprintf("high loss: %g%%", alpha*100), closed: func(pt point) float64 {
			return em(heteroMix(pt.r, alpha))
		}})
	}
	return s
}

// fig9: heterogeneous receivers without FEC.
func fig9(Options) spec {
	return heteroFigure("Reliable multicast for different heterogeneities without FEC", model.ExpectedTxNoFECHetero)
}

// fig10: heterogeneous receivers with integrated FEC, k = 7.
func fig10(Options) spec {
	return heteroFigure("Reliable multicast for different heterogeneities with integrated FEC (k=7)",
		func(classes []model.Class) float64 { return model.ExpectedTxIntegratedHetero(7, 0, classes) })
}

// fbtPoints returns the full-binary-tree points of Figs 11/12: R = 2^d for
// d = 0..17 (the paper's grid, R up to 131072), 0..9 in Quick mode.
func fbtPoints(opt Options) []point {
	maxD := 17
	if opt.Quick {
		maxD = 9
	}
	pts := make([]point, 0, maxD+1)
	for d := 0; d <= maxD; d++ {
		r := 1 << d
		pts = append(pts, point{x: float64(r), label: fmt.Sprintf("d=%d", d), r: r, samples: opt.samplesFor(r)})
	}
	return pts
}

// fbt is the shared-loss tree population of Figs 11/12 at a point.
func fbt(rng *rand.Rand, pt point) loss.Population {
	return loss.NewFBT(bits.TrailingZeros(uint(pt.r)), lossP, rng)
}

// fbtFigure is Figs 11 and 12: no FEC and one FEC scheme under
// independent versus full-binary-tree shared loss. Independent-loss curves
// come from the closed forms (which the simulator is cross-validated
// against in tests); shared-loss curves are simulated.
func fbtFigure(opt Options, title, scheme string, closed func(pt point) float64,
	engine func(pop loss.Population, n int) sim.Estimate) spec {
	return spec{
		meta:   overR(title),
		points: fbtPoints(opt),
		curves: []curve{
			{name: "non-FEC indep. loss", closed: noFEC},
			{name: scheme + " FEC indep. loss", closed: closed},
			{name: "non-FEC FBT loss", tag: "noFEC-fbt", mc: func(rng *rand.Rand, pt point) sim.Estimate {
				return sim.NoFEC(fbt(rng, pt), sim.PaperTiming, pt.samples)
			}},
			{name: scheme + " FEC FBT loss", tag: scheme + "-fbt", mc: func(rng *rand.Rand, pt point) sim.Estimate {
				return engine(fbt(rng, pt), pt.samples)
			}},
		},
	}
}

// fig11: layered FEC (k=7, h=1) and no FEC under independent versus
// full-binary-tree shared loss.
func fig11(opt Options) spec {
	return fbtFigure(opt, "Layered FEC, independent vs FBT shared loss, p = 0.01, k = 7, h = 1", "layered", layered(7, 1),
		func(pop loss.Population, n int) sim.Estimate { return sim.Layered(pop, 7, 1, sim.PaperTiming, n) })
}

// fig12: integrated FEC (k=7) under independent vs FBT shared loss.
func fig12(opt Options) spec {
	return fbtFigure(opt, "Integrated FEC, independent vs FBT shared loss, p = 0.01, k = 7", "integrated", integrated(7),
		func(pop loss.Population, n int) sim.Estimate { return sim.Integrated2(pop, 7, sim.PaperTiming, n) })
}

// burstPoints returns the receiver points of Figs 15/16 (the paper plots
// up to 10^4) with mult times the scaled base sample count: the burst
// engines are cheap per sample, so these figures buy extra precision.
func burstPoints(opt Options, mult int) []point {
	grid := []int{1, 3, 10, 30, 100, 300, 1000, 3000, 10000}
	if opt.Quick {
		grid = []int{1, 10, 100, 1000}
	}
	return receiverPoints(grid, func(r int) int { return opt.samplesFor(r) * mult })
}

// burst builds the homogeneous Markov population of Figs 15/16 at a point,
// using the sparse state-bucket kernel: because a chain's state is exactly
// "lost on the previous draw", a draw costs O(p*R), not O(R), despite the
// per-receiver temporal state.
func burst(rng *rand.Rand, pt point) loss.Population {
	return loss.NewMarkovPopulation(pt.r, lossP, 2, 25, rng)
}

// burstNoFEC is the no-FEC curve of Figs 15/16.
var burstNoFEC = curve{name: "no FEC", tag: "noFEC", mc: func(rng *rand.Rand, pt point) sim.Estimate {
	return sim.NoFEC(burst(rng, pt), sim.PaperTiming, pt.samples)
}}

// fig15: burst loss with layered FEC (7+1, 7+3) vs no FEC.
func fig15(opt Options) spec {
	s := spec{
		meta:   overR("Burst loss and FEC layer, p = 0.01, b = 2, T = 300 ms"),
		points: burstPoints(opt, 4),
		curves: []curve{burstNoFEC},
	}
	for _, h := range []int{1, 3} {
		s.curves = append(s.curves, curve{
			name: fmt.Sprintf("FEC layer (7+%d)", h),
			tag:  fmt.Sprintf("layered-7+%d", h),
			mc: func(rng *rand.Rand, pt point) sim.Estimate {
				return sim.Layered(burst(rng, pt), 7, h, sim.PaperTiming, pt.samples)
			},
		})
	}
	return s
}

// fig16: burst loss with integrated FEC 1 and 2 for k = 7, 20, 100.
func fig16(opt Options) spec {
	s := spec{
		meta:   overR("Burst loss and integrated FEC, p = 0.01, b = 2"),
		points: burstPoints(opt, 2),
		curves: []curve{burstNoFEC},
	}
	for _, k := range []int{7, 20, 100} {
		for v, engine := range []func(loss.Population, int, sim.Timing, int) sim.Estimate{sim.Integrated1, sim.Integrated2} {
			s.curves = append(s.curves, curve{
				name: fmt.Sprintf("integrated FEC %d k=%d", v+1, k),
				tag:  fmt.Sprintf("integrated%d-k=%d", v+1, k),
				mc: func(rng *rand.Rand, pt point) sim.Estimate {
					// Larger groups cost more per group.
					return engine(burst(rng, pt), k, sim.PaperTiming, max(12, pt.samples/max(1, k/7)))
				},
			})
		}
	}
	return s
}

// rateFigure is Figs 17 and 18: end-host rates over R.
func rateFigure(title, yLabel string, curves ...curve) spec {
	return spec{
		meta:   Figure{Title: title, XLabel: "number of receivers R", YLabel: yLabel, XLog: true},
		points: closedPoints(),
		curves: curves,
	}
}

// fig17: sender/receiver processing rates of N2 and NP, k = 20, p = 0.01.
func fig17(opt Options) spec {
	tm := opt.timing()
	return rateFigure("Processing rates at sender and receiver, N2 vs NP, k = 20, p = 0.01", "processing rate [pkts/msec]",
		curve{name: "N2 sender", closed: func(pt point) float64 { return model.N2Rates(pt.r, lossP, tm).Send }},
		curve{name: "N2 receiver", closed: func(pt point) float64 { return model.N2Rates(pt.r, lossP, tm).Recv }},
		curve{name: "NP sender", closed: func(pt point) float64 { return model.NPRates(20, pt.r, lossP, tm, false).Send }},
		curve{name: "NP receiver", closed: func(pt point) float64 { return model.NPRates(20, pt.r, lossP, tm, false).Recv }})
}

// fig18: end-system throughput of N2 and NP with and without pre-encoding.
func fig18(opt Options) spec {
	tm := opt.timing()
	return rateFigure("Throughput comparison, k = 20, p = 0.01", "throughput [pkts/msec]",
		curve{name: "N2", closed: func(pt point) float64 { return model.N2Rates(pt.r, lossP, tm).Throughput }},
		curve{name: "NP", closed: func(pt point) float64 { return model.NPRates(20, pt.r, lossP, tm, false).Throughput }},
		curve{name: "NP pre-encode", closed: func(pt point) float64 { return model.NPRates(20, pt.r, lossP, tm, true).Throughput }})
}
