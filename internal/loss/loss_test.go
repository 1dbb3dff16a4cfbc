package loss

import (
	"math"
	"math/rand"
	"testing"
)

func TestBernoulliRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBernoulli(0.1, rng)
	const n = 200000
	lost := 0
	for i := 0; i < n; i++ {
		if b.Lost(0.04) {
			lost++
		}
	}
	got := float64(lost) / n
	if math.Abs(got-0.1) > 0.005 {
		t.Errorf("Bernoulli loss rate = %g, want 0.1", got)
	}
}

func TestBernoulliValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("p=1.5 accepted")
		}
	}()
	NewBernoulli(1.5, rand.New(rand.NewSource(1)))
}

func TestMarkovParameterisation(t *testing.T) {
	// Paper's burst example: p=0.01, meanBurst=2, 25 pkt/s.
	m := NewMarkov(0.01, 2, 25, rand.New(rand.NewSource(2)))
	wantL1 := -25 * math.Log(0.5)
	if math.Abs(m.Lambda1-wantL1) > 1e-9 {
		t.Errorf("Lambda1 = %g, want %g", m.Lambda1, wantL1)
	}
	wantL0 := wantL1 * 0.01 / 0.99
	if math.Abs(m.Lambda0-wantL0) > 1e-9 {
		t.Errorf("Lambda0 = %g, want %g", m.Lambda0, wantL0)
	}
	// Stationarity: pi1 = Lambda0/(Lambda0+Lambda1) = p.
	pi1 := m.Lambda0 / (m.Lambda0 + m.Lambda1)
	if math.Abs(pi1-0.01) > 1e-12 {
		t.Errorf("pi1 = %g, want 0.01", pi1)
	}
}

func TestMarkovTransitionProbabilities(t *testing.T) {
	// The closed-form transition probabilities must satisfy the
	// Chapman-Kolmogorov equation: P(s+t) = P(s)P(t) for the 2x2 chain.
	m := NewMarkov(0.05, 3, 25, rand.New(rand.NewSource(3)))
	for _, st := range [][2]float64{{0.01, 0.02}, {0.1, 0.3}, {1, 2}} {
		s, u := st[0], st[1]
		p01 := func(t float64) float64 { return m.P01(t) }
		p11 := func(t float64) float64 { return m.P11(t) }
		p00 := func(t float64) float64 { return 1 - p01(t) }
		p10 := func(t float64) float64 { return 1 - p11(t) }
		// 0 -> 1 over s+u.
		want := p00(s)*p01(u) + p01(s)*p11(u)
		if math.Abs(p01(s+u)-want) > 1e-12 {
			t.Errorf("CK failed for p01(%g+%g): %g vs %g", s, u, p01(s+u), want)
		}
		// 1 -> 1 over s+u.
		want = p10(s)*p01(u) + p11(s)*p11(u)
		if math.Abs(p11(s+u)-want) > 1e-12 {
			t.Errorf("CK failed for p11(%g+%g): %g vs %g", s, u, p11(s+u), want)
		}
	}
	// Limits: dt -> 0 keeps the state; dt -> inf forgets it.
	if m.P11(1e-12) < 0.999999 {
		t.Error("P11(0+) should be ~1")
	}
	if math.Abs(m.P11(1e6)-0.05) > 1e-9 || math.Abs(m.P01(1e6)-0.05) > 1e-9 {
		t.Error("P(t->inf) should converge to pi1")
	}
}

func TestMarkovLongRunLossAndBurstLength(t *testing.T) {
	const (
		p     = 0.01
		burst = 2.0
		rate  = 25.0
		n     = 2_000_000
	)
	m := NewMarkov(p, burst, rate, rand.New(rand.NewSource(4)))
	dt := 1 / rate
	lost := 0
	bursts, burstsTotal := 0, 0
	run := 0
	for i := 0; i < n; i++ {
		if m.Lost(dt) {
			lost++
			run++
		} else if run > 0 {
			bursts++
			burstsTotal += run
			run = 0
		}
	}
	lossRate := float64(lost) / n
	if math.Abs(lossRate-p) > 0.0015 {
		t.Errorf("long-run loss rate = %g, want %g", lossRate, p)
	}
	meanBurst := float64(burstsTotal) / float64(bursts)
	if math.Abs(meanBurst-burst) > 0.1 {
		t.Errorf("mean burst length = %g, want %g", meanBurst, burst)
	}
}

func TestMarkovValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, f := range map[string]func(){
		"p=0":     func() { NewMarkov(0, 2, 25, rng) },
		"p=1":     func() { NewMarkov(1, 2, 25, rng) },
		"burst=1": func() { NewMarkov(0.1, 1, 25, rng) },
		"rate=0":  func() { NewMarkov(0.1, 2, 0, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestIndependentPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pop := NewIndependentBernoulli(50, 0.2, rng)
	if pop.R() != 50 {
		t.Fatalf("R = %d", pop.R())
	}
	lost := make([]bool, 50)
	count := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		drawDense(pop, 0.04, lost)
		for _, l := range lost {
			if l {
				count++
			}
		}
	}
	got := float64(count) / float64(draws*50)
	if math.Abs(got-0.2) > 0.01 {
		t.Errorf("population loss rate = %g, want 0.2", got)
	}
}

// drawDense marks in lost (length R) the receivers of one DrawLost.
func drawDense(pop Population, dt float64, lost []bool) {
	clear(lost)
	for _, j := range pop.DrawLost(dt) {
		lost[j] = true
	}
}

func TestFBTLeafLossProbability(t *testing.T) {
	for _, depth := range []int{0, 1, 3, 6} {
		tree := NewFBT(depth, 0.05, rand.New(rand.NewSource(7)))
		lost := make([]bool, tree.R())
		count, total := 0, 0
		const draws = 60000
		for i := 0; i < draws; i++ {
			drawDense(tree, 0, lost)
			for _, l := range lost {
				if l {
					count++
				}
				total++
			}
		}
		got := float64(count) / float64(total)
		if math.Abs(got-0.05) > 0.004 {
			t.Errorf("depth %d: per-leaf loss = %g, want 0.05", depth, got)
		}
	}
}

func TestFBTSharedness(t *testing.T) {
	// Sibling leaves share d of their d+1 path nodes, so their losses must
	// be strongly positively correlated; under independence the joint loss
	// probability would be p^2.
	const depth, p = 6, 0.05
	tree := NewFBT(depth, p, rand.New(rand.NewSource(8)))
	lost := make([]bool, tree.R())
	both, single := 0, 0
	const draws = 200000
	for i := 0; i < draws; i++ {
		drawDense(tree, 0, lost)
		if lost[0] {
			single++
			if lost[1] {
				both++
			}
		}
	}
	pBothGivenFirst := float64(both) / float64(single)
	if pBothGivenFirst < 5*p {
		t.Errorf("P(leaf1 lost | leaf0 lost) = %g: losses look independent, want strong sharing", pBothGivenFirst)
	}
}

func TestFBTMatchesNaiveImplementation(t *testing.T) {
	// Cross-check the skip-sampler against a naive per-node Bernoulli tree
	// walk by comparing marginal statistics on a small tree.
	const depth, p = 3, 0.3
	tree := NewFBT(depth, p, rand.New(rand.NewSource(9)))
	pnode := tree.PNode
	want := 1 - math.Pow(1-pnode, float64(depth+1))
	if math.Abs(want-p) > 1e-12 {
		t.Fatalf("PNode derivation wrong: round trip %g != %g", want, p)
	}

	naive := func(rng *rand.Rand, lost []bool) {
		fail := make([]bool, 1<<(depth+1)-1)
		for i := range fail {
			fail[i] = rng.Float64() < pnode
		}
		for leaf := 0; leaf < 1<<depth; leaf++ {
			idx := (1 << depth) - 1 + leaf
			l := false
			for {
				if fail[idx] {
					l = true
					break
				}
				if idx == 0 {
					break
				}
				idx = (idx - 1) / 2
			}
			lost[leaf] = l
		}
	}

	rng := rand.New(rand.NewSource(10))
	lost := make([]bool, 1<<depth)
	const draws = 120000
	// count tallies per-leaf losses and the joint losses of two leaf
	// pairs: siblings (0, 1), which share all but their own node, and far
	// leaves (0, 7), which share only the root.
	count := func(draw func([]bool)) (leaf []int, siblings, far int) {
		leaf = make([]int, len(lost))
		for i := 0; i < draws; i++ {
			draw(lost)
			for j, l := range lost {
				if l {
					leaf[j]++
				}
			}
			if lost[0] && lost[1] {
				siblings++
			}
			if lost[0] && lost[7] {
				far++
			}
		}
		return leaf, siblings, far
	}
	countFast, sibFast, pairFast := count(func(lost []bool) { drawDense(tree, 0, lost) })
	countNaive, sibNaive, pairNaive := count(func(lost []bool) { naive(rng, lost) })
	for j := range countFast {
		f := float64(countFast[j]) / draws
		n := float64(countNaive[j]) / draws
		if math.Abs(f-n) > 0.01 {
			t.Errorf("leaf %d: fast %g vs naive %g", j, f, n)
		}
	}
	if math.Abs(float64(sibFast-sibNaive))/draws > 0.01 {
		t.Errorf("joint loss of sibling leaves: fast %d vs naive %d", sibFast, sibNaive)
	}
	if math.Abs(float64(pairFast-pairNaive))/draws > 0.01 {
		t.Errorf("joint loss of far leaves: fast %d vs naive %d", pairFast, pairNaive)
	}
}

func TestUniformTreeMatchesFBT(t *testing.T) {
	// The FBT is the degree-2 uniform tree of height d: R = 2^d leaves, a
	// per-leaf marginal of p, and sibling leaves that share every node but
	// their own, so both are lost unless the d shared nodes all pass and
	// then with PNode^2.
	const depth, p = 5, 0.05
	fbt := NewFBT(depth, p, rand.New(rand.NewSource(2)))
	if fbt.R() != 1<<depth {
		t.Fatalf("R = %d, want %d", fbt.R(), 1<<depth)
	}
	q := fbt.PNode
	shared := math.Pow(1-q, depth)
	wantBoth := 1 - shared + shared*q*q
	lost := make([]bool, fbt.R())
	const draws = 120000
	var m, b int
	for i := 0; i < draws; i++ {
		drawDense(fbt, 0, lost)
		if lost[0] {
			m++
			if lost[1] {
				b++
			}
		}
	}
	if got := float64(m) / draws; math.Abs(got-p) > 0.004 {
		t.Errorf("marginal %g, want %g", got, p)
	}
	if got := float64(b) / draws; math.Abs(got-wantBoth) > 0.004 {
		t.Errorf("sibling joint loss %g, want %g", got, wantBoth)
	}
}

func TestFBTZeroLoss(t *testing.T) {
	tree := NewFBT(4, 0, rand.New(rand.NewSource(11)))
	lost := make([]bool, tree.R())
	for i := range lost {
		lost[i] = true
	}
	drawDense(tree, 0, lost)
	for i, l := range lost {
		if l {
			t.Fatalf("leaf %d lost with p=0", i)
		}
	}
}

func TestFBTValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for name, f := range map[string]func(){
		"depth<0": func() { NewFBT(-1, 0.1, rng) },
		"p=1":     func() { NewFBT(3, 1, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	run := func() []bool {
		rng := rand.New(rand.NewSource(99))
		tree := NewFBT(5, 0.1, rng)
		lost := make([]bool, tree.R())
		out := make([]bool, 0, 10*tree.R())
		for i := 0; i < 10; i++ {
			drawDense(tree, 0, lost)
			out = append(out, lost...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FBT draws not deterministic under a fixed seed")
		}
	}
}
