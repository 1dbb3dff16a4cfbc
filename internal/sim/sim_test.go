package sim

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"rmfec/internal/loss"
	"rmfec/internal/model"
)

// withinCI reports whether the estimate agrees with want to within 4
// standard errors plus a small relative slack.
func withinCI(e Estimate, want float64) bool {
	return math.Abs(e.Mean-want) <= 4*e.StdErr+0.01*want
}

func TestNoFECMatchesModel(t *testing.T) {
	for _, tc := range []struct {
		r int
		p float64
	}{
		{1, 0.1}, {5, 0.05}, {50, 0.01}, {20, 0.25},
	} {
		pop := loss.NewIndependentBernoulli(tc.r, tc.p, rand.New(rand.NewSource(100)))
		est := NoFEC(pop, PaperTiming, 40000)
		want := model.ExpectedTxNoFEC(tc.r, tc.p)
		if !withinCI(est, want) {
			t.Errorf("NoFEC(R=%d,p=%g): sim %g+-%g vs model %g",
				tc.r, tc.p, est.Mean, est.StdErr, want)
		}
	}
}

func TestIntegratedMatchesModel(t *testing.T) {
	// With memoryless loss both integrated variants realise the idealised
	// lower bound of Eq. (6).
	for _, tc := range []struct {
		k, r int
		p    float64
	}{
		{7, 10, 0.05}, {20, 5, 0.1}, {4, 100, 0.01}, {1, 10, 0.2},
	} {
		want := model.ExpectedTxIntegrated(tc.k, 0, tc.r, tc.p)
		pop1 := loss.NewIndependentBernoulli(tc.r, tc.p, rand.New(rand.NewSource(101)))
		est1 := Integrated1(pop1, tc.k, PaperTiming, 20000)
		if !withinCI(est1, want) {
			t.Errorf("Integrated1(k=%d,R=%d,p=%g): sim %g+-%g vs model %g",
				tc.k, tc.r, tc.p, est1.Mean, est1.StdErr, want)
		}
		pop2 := loss.NewIndependentBernoulli(tc.r, tc.p, rand.New(rand.NewSource(102)))
		est2 := Integrated2(pop2, tc.k, PaperTiming, 20000)
		if !withinCI(est2, want) {
			t.Errorf("Integrated2(k=%d,R=%d,p=%g): sim %g+-%g vs model %g",
				tc.k, tc.r, tc.p, est2.Mean, est2.StdErr, want)
		}
	}
}

func TestLayeredMatchesModel(t *testing.T) {
	for _, tc := range []struct {
		k, h, r int
		p       float64
	}{
		{7, 1, 10, 0.05}, {7, 2, 50, 0.01}, {4, 3, 5, 0.1}, {7, 0, 10, 0.05},
	} {
		pop := loss.NewIndependentBernoulli(tc.r, tc.p, rand.New(rand.NewSource(103)))
		est := Layered(pop, tc.k, tc.h, PaperTiming, 20000)
		want := model.ExpectedTxLayered(tc.k, tc.h, tc.r, tc.p)
		if !withinCI(est, want) {
			t.Errorf("Layered(k=%d,h=%d,R=%d,p=%g): sim %g+-%g vs model %g",
				tc.k, tc.h, tc.r, tc.p, est.Mean, est.StdErr, want)
		}
	}
}

func TestFBTSingleReceiverIsGeometric(t *testing.T) {
	// A depth-0 tree is a single receiver losing with probability p:
	// E[M] = 1/(1-p).
	tree := loss.NewFBT(0, 0.1, rand.New(rand.NewSource(104)))
	est := NoFEC(tree, PaperTiming, 40000)
	if !withinCI(est, 1/(1-0.1)) {
		t.Errorf("FBT depth 0: %g+-%g, want %g", est.Mean, est.StdErr, 1/(1-0.1))
	}
}

func TestSharedLossNeedsFewerTransmissions(t *testing.T) {
	// Section 4.1: at equal per-receiver loss probability, shared (FBT)
	// loss yields a LOWER expected transmission count than independent
	// loss, for every recovery scheme.
	const depth, p = 8, 0.01 // R = 256
	r := 1 << depth
	seed := int64(105)
	indepNo := NoFEC(loss.NewIndependentBernoulli(r, p, rand.New(rand.NewSource(seed))), PaperTiming, 4000)
	fbtNo := NoFEC(loss.NewFBT(depth, p, rand.New(rand.NewSource(seed))), PaperTiming, 4000)
	if fbtNo.Mean >= indepNo.Mean {
		t.Errorf("no-FEC: FBT %g should be below independent %g", fbtNo.Mean, indepNo.Mean)
	}
	indepInt := Integrated2(loss.NewIndependentBernoulli(r, p, rand.New(rand.NewSource(seed))), 7, PaperTiming, 4000)
	fbtInt := Integrated2(loss.NewFBT(depth, p, rand.New(rand.NewSource(seed))), 7, PaperTiming, 4000)
	if fbtInt.Mean >= indepInt.Mean {
		t.Errorf("integrated: FBT %g should be below independent %g", fbtInt.Mean, indepInt.Mean)
	}
}

func TestBurstLayeredWorseThanNoFEC(t *testing.T) {
	// Fig 15's headline: with bursty loss (b=2) a small TG (7+1) performs
	// WORSE than no FEC at moderate receiver counts.
	const r = 100
	mkPop := func(seed int64) loss.Population {
		return loss.NewIndependentMarkov(r, 0.01, 2, 25, rand.New(rand.NewSource(seed)))
	}
	noFEC := NoFEC(mkPop(106), PaperTiming, 3000)
	layered := Layered(mkPop(107), 7, 1, PaperTiming, 3000)
	if layered.Mean <= noFEC.Mean {
		t.Errorf("burst loss: layered 7+1 (%g) should exceed no-FEC (%g)",
			layered.Mean, noFEC.Mean)
	}
}

func TestBurstIntegratedLargeTGBeatsSmall(t *testing.T) {
	// Fig 16: under burst loss increasing k from 7 to 100 significantly
	// improves integrated FEC; k=100 approaches 1 transmission/packet.
	const r = 1000
	mk := func(seed int64) loss.Population {
		return loss.NewIndependentMarkov(r, 0.01, 2, 25, rand.New(rand.NewSource(seed)))
	}
	k7 := Integrated2(mk(108), 7, PaperTiming, 400)
	k100 := Integrated2(mk(109), 100, PaperTiming, 100)
	if k100.Mean >= k7.Mean {
		t.Errorf("burst: k=100 (%g) should beat k=7 (%g)", k100.Mean, k7.Mean)
	}
	if k100.Mean > 1.3 {
		t.Errorf("burst: integrated k=100 = %g, want near 1", k100.Mean)
	}
}

func TestBurstInterleavingHelpsSmallTG(t *testing.T) {
	// Fig 16: for k=7 the spread-out parity rounds of integrated FEC 2
	// bridge loss periods better than the back-to-back parities of
	// integrated FEC 1.
	const r = 1000
	mk := func(seed int64) loss.Population {
		return loss.NewIndependentMarkov(r, 0.01, 2, 25, rand.New(rand.NewSource(seed)))
	}
	i1 := Integrated1(mk(110), 7, PaperTiming, 3000)
	i2 := Integrated2(mk(111), 7, PaperTiming, 3000)
	if i2.Mean >= i1.Mean {
		t.Errorf("burst k=7: integrated-2 (%g) should beat integrated-1 (%g)", i2.Mean, i1.Mean)
	}
}

func TestBurstCensus(t *testing.T) {
	proc := loss.NewMarkov(0.01, 2, 25, rand.New(rand.NewSource(112)))
	hist := BurstCensus(proc, 0.040, 1_000_000)
	if got := hist.MeanLength(); math.Abs(got-2) > 0.15 {
		t.Errorf("mean burst length = %g, want 2", got)
	}
	if got := float64(hist.TotalLosses()) / 1e6; math.Abs(got-0.01) > 0.002 {
		t.Errorf("loss fraction = %g, want 0.01", got)
	}
	// Geometric tail: counts roughly halve per extra packet (ratio 1-1/b).
	if hist[1] <= hist[2] || hist[2] <= hist[3] {
		t.Errorf("histogram not decreasing: %d, %d, %d", hist[1], hist[2], hist[3])
	}
	lengths := hist.Lengths()
	if lengths[0] != 1 {
		t.Errorf("shortest burst = %d, want 1", lengths[0])
	}
	// Bernoulli census: bursts of length 1 dominate overwhelmingly.
	bern := BurstCensus(loss.NewBernoulli(0.01, rand.New(rand.NewSource(113))), 0.040, 1_000_000)
	if b := bern.MeanLength(); b > 1.05 {
		t.Errorf("Bernoulli mean burst = %g, want ~1.01", b)
	}
}

// agreeStats reports whether two independent estimates of the same
// quantity agree within 4 combined standard errors plus relative slack.
func agreeStats(a, b Estimate) bool {
	tol := 4*math.Hypot(a.StdErr, b.StdErr) + 0.01*b.Mean
	return math.Abs(a.Mean-b.Mean) <= tol
}

// denseWitness returns the recorded dense-scan reference estimates,
// testdata/dense_witness.tsv, keyed "population/engine".
func denseWitness(t *testing.T) map[string]Estimate {
	t.Helper()
	data, err := os.ReadFile("testdata/dense_witness.tsv")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]Estimate)
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Split(line, "\t")
		if strings.HasPrefix(line, "#") || len(f) != 4 || f[0] == "population" {
			continue
		}
		mean, err1 := strconv.ParseFloat(f[2], 64)
		se, err2 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("dense witness line %q: %v %v", line, err1, err2)
		}
		out[f[0]+"/"+f[1]] = Estimate{Mean: mean, StdErr: se}
	}
	return out
}

// TestSparseEnginesMatchDenseReference pins every sparse engine against
// the recorded dense-scan reference runs of the same workload, both under
// the sparse Bernoulli population (geometric skip-sampling) and its dense
// counterpart.
func TestSparseEnginesMatchDenseReference(t *testing.T) {
	const r, p, samples = 400, 0.02, 4000
	witness := denseWitness(t)
	sparsePop := func(seed int64) loss.Population {
		return loss.NewBernoulliPopulation(r, p, rand.New(rand.NewSource(seed)))
	}
	densePop := func(seed int64) loss.Population {
		return loss.NewIndependentBernoulli(r, p, rand.New(rand.NewSource(seed)))
	}
	for name, sparse := range map[string]func(loss.Population) Estimate{
		"NoFEC":       func(pop loss.Population) Estimate { return NoFEC(pop, PaperTiming, samples) },
		"Layered":     func(pop loss.Population) Estimate { return Layered(pop, 7, 1, PaperTiming, samples/4) },
		"Integrated1": func(pop loss.Population) Estimate { return Integrated1(pop, 7, PaperTiming, samples/4) },
		"Integrated2": func(pop loss.Population) Estimate { return Integrated2(pop, 7, PaperTiming, samples/4) },
	} {
		ref, ok := witness["bernoulli/"+name]
		if !ok {
			t.Fatalf("%s: no dense witness row", name)
		}
		forSparse := sparse(sparsePop(201))
		if !agreeStats(forSparse, ref) {
			t.Errorf("%s: sparse engine + sparse population %g+-%g vs dense reference %g+-%g",
				name, forSparse.Mean, forSparse.StdErr, ref.Mean, ref.StdErr)
		}
		forDense := sparse(densePop(202))
		if !agreeStats(forDense, ref) {
			t.Errorf("%s: sparse engine + dense population %g+-%g vs dense reference %g+-%g",
				name, forDense.Mean, forDense.StdErr, ref.Mean, ref.StdErr)
		}
	}
}

// TestMarkovPopulationMatchesDense runs the burst-loss engines of Figs
// 15/16 with the sparse state-bucket Markov population against the
// recorded dense-scan runs over per-receiver chains; this also exercises
// the draw-then-intersect fallback of drawLostAmong (MarkovPopulation is
// sparse but cannot restrict its draw to a subset).
func TestMarkovPopulationMatchesDense(t *testing.T) {
	const r, p, samples = 300, 0.02, 3000
	witness := denseWitness(t)
	sparsePop := func(seed int64) loss.Population {
		return loss.NewMarkovPopulation(r, p, 2, 25, rand.New(rand.NewSource(seed)))
	}
	for name, sparse := range map[string]func(loss.Population) Estimate{
		"NoFEC":       func(pop loss.Population) Estimate { return NoFEC(pop, PaperTiming, samples) },
		"Layered":     func(pop loss.Population) Estimate { return Layered(pop, 7, 1, PaperTiming, samples/4) },
		"Integrated2": func(pop loss.Population) Estimate { return Integrated2(pop, 7, PaperTiming, samples/4) },
	} {
		ref, ok := witness["markov/"+name]
		if !ok {
			t.Fatalf("%s: no dense witness row", name)
		}
		got := sparse(sparsePop(231))
		if !agreeStats(got, ref) {
			t.Errorf("%s: sparse Markov population %g+-%g vs dense reference %g+-%g",
				name, got.Mean, got.StdErr, ref.Mean, ref.StdErr)
		}
	}
}

// TestSparsePopulationMatchesModel runs the sparse Bernoulli population
// end-to-end through the engines against the paper's closed forms.
func TestSparsePopulationMatchesModel(t *testing.T) {
	pop := func(seed int64, r int, p float64) loss.Population {
		return loss.NewBernoulliPopulation(r, p, rand.New(rand.NewSource(seed)))
	}
	noFEC := NoFEC(pop(210, 50, 0.01), PaperTiming, 40000)
	if want := model.ExpectedTxNoFEC(50, 0.01); !withinCI(noFEC, want) {
		t.Errorf("NoFEC sparse: %g+-%g vs model %g", noFEC.Mean, noFEC.StdErr, want)
	}
	layered := Layered(pop(211, 50, 0.01), 7, 2, PaperTiming, 20000)
	if want := model.ExpectedTxLayered(7, 2, 50, 0.01); !withinCI(layered, want) {
		t.Errorf("Layered sparse: %g+-%g vs model %g", layered.Mean, layered.StdErr, want)
	}
	integ := Integrated2(pop(212, 100, 0.01), 4, PaperTiming, 20000)
	if want := model.ExpectedTxIntegrated(4, 0, 100, 0.01); !withinCI(integ, want) {
		t.Errorf("Integrated2 sparse: %g+-%g vs model %g", integ.Mean, integ.StdErr, want)
	}
}

// TestIntegrated2DetailedSharedCore checks the detailed variant still
// reports both outputs coherently after the sparse rewrite.
func TestIntegrated2DetailedSharedCore(t *testing.T) {
	pop := loss.NewBernoulliPopulation(50, 0.05, rand.New(rand.NewSource(220)))
	m, rounds := Integrated2Detailed(pop, 7, PaperTiming, 5000)
	if m.Mean < 1 {
		t.Errorf("E[M] = %g, must be >= 1", m.Mean)
	}
	if rounds.Mean < 1 {
		t.Errorf("E[rounds] = %g, must be >= 1", rounds.Mean)
	}
	// Every group uses at least one round and k transmissions, and extra
	// rounds imply extra transmissions: m*k >= k + (rounds-1).
	if m.Mean*7 < 7+(rounds.Mean-1)-0.01 {
		t.Errorf("inconsistent: E[M]*k = %g < k + E[rounds] - 1 = %g", m.Mean*7, 7+rounds.Mean-1)
	}
}

func TestEstimateStatistics(t *testing.T) {
	e := estimate([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if e.Mean != 5 {
		t.Errorf("mean = %g", e.Mean)
	}
	if e.Samples != 8 {
		t.Errorf("samples = %d", e.Samples)
	}
	// Sample sd of this classic dataset is ~2.138; SE = sd/sqrt(8).
	if math.Abs(e.StdErr-2.1380899/math.Sqrt(8)) > 1e-6 {
		t.Errorf("stderr = %g", e.StdErr)
	}
	one := estimate([]float64{3})
	if one.StdErr != 0 {
		t.Errorf("single-sample stderr = %g", one.StdErr)
	}
}

func TestValidationPanics(t *testing.T) {
	pop := loss.NewIndependentBernoulli(2, 0.1, rand.New(rand.NewSource(114)))
	for name, f := range map[string]func(){
		"NoFEC packets":    func() { NoFEC(pop, PaperTiming, 0) },
		"Layered k":        func() { Layered(pop, 0, 1, PaperTiming, 10) },
		"Layered h":        func() { Layered(pop, 7, -1, PaperTiming, 10) },
		"Integrated1 k":    func() { Integrated1(pop, 0, PaperTiming, 10) },
		"Integrated2 k":    func() { Integrated2(pop, 0, PaperTiming, 10) },
		"bad timing":       func() { NoFEC(pop, Timing{Delta: 0, T: 1}, 10) },
		"census packets":   func() { BurstCensus(loss.NewBernoulli(0.1, rand.New(rand.NewSource(1))), 0.04, 0) },
		"census dt":        func() { BurstCensus(loss.NewBernoulli(0.1, rand.New(rand.NewSource(1))), 0, 10) },
		"empty estimate":   func() { estimate(nil) },
		"Integrated2 grps": func() { Integrated2(pop, 7, PaperTiming, 0) },
		"Integrated1 T":    func() { Integrated1(pop, 7, Timing{Delta: 0.04, T: -1}, 10) },
		"Integrated1 grps": func() { Integrated1(pop, 7, PaperTiming, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestIntegrated1IgnoresFeedbackGap: the feedback-free scheme never waits
// for feedback, so its estimate is the same draw for draw whatever T is,
// under a memoryless and under a bursty population.
func TestIntegrated1IgnoresFeedbackGap(t *testing.T) {
	for name, pop := range map[string]func() loss.Population{
		"bernoulli": func() loss.Population { return loss.NewBernoulliPopulation(300, 0.05, rand.New(rand.NewSource(115))) },
		"markov": func() loss.Population {
			return loss.NewMarkovPopulation(300, 0.05, 2, 25, rand.New(rand.NewSource(116)))
		},
	} {
		want := Integrated1(pop(), 7, Timing{Delta: 0.04}, 300)
		for _, gap := range []float64{0.3, 5} {
			if got := Integrated1(pop(), 7, Timing{Delta: 0.04, T: gap}, 300); got != want {
				t.Errorf("%s: Integrated1 at T = %g is %+v, at T = 0 %+v", name, gap, got, want)
			}
		}
	}
}
