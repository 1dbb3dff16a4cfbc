package adapt

import (
	"math/rand"
	"testing"

	"rmfec/internal/metrics"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Window = 24
	cfg.ProbeEvery = 8
	return cfg
}

// binLoss draws a Binomial(n, p) loss count packet by packet.
func binLoss(rng *rand.Rand, n int, p float64) int {
	lost := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			lost++
		}
	}
	return lost
}

// driveTG runs one TG through the control loop against Bernoulli loss at
// rate p: Decide picks the working point, the deficit is what the worst
// (sole) receiver would NAK, Observe feeds it back.
func driveTG(c *Controller, rng *rand.Rand, p float64) (Params, bool) {
	prm, changed := c.Decide()
	def := binLoss(rng, prm.K+prm.A, p) - prm.A
	if def < 0 {
		def = 0
	}
	c.Observe(prm.K, prm.A, def)
	return prm, changed
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	mut := []func(*Config){
		func(c *Config) { c.Window = 2 },
		func(c *Config) { c.MinDwell = 0 },
		func(c *Config) { c.DownMargin = 1 },
		func(c *Config) { c.DownMargin = -0.1 },
		func(c *Config) { c.BurstEnter = 1.0; c.BurstExit = 1.5 },
		func(c *Config) { c.BurstExit = 0 },
		func(c *Config) { c.MinBurstObs = 0 },
		func(c *Config) { c.ProbeEvery = -1 },
		func(c *Config) { c.Ladder = nil },
		func(c *Config) { c.Ladder = []Rung{{PMax: 0.5, P: Params{K: 8, H: 4}}} },
		func(c *Config) {
			c.Ladder = []Rung{{PMax: 0.5, P: Params{K: 8, H: 4}}, {PMax: 0.5, P: Params{K: 4, H: 4}}}
		},
		func(c *Config) { c.Ladder = []Rung{{PMax: 1, P: Params{K: 0, H: 4}}} },
		func(c *Config) { c.Ladder = []Rung{{PMax: 1, P: Params{K: 8, H: 4, A: 5}}} },
		func(c *Config) { c.Initial = 99 },
	}
	for i, m := range mut {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted a bad config", i)
		}
	}
}

// TestDefaultLadderFieldCompat pins the invariant internal/field depends
// on: every rung's k+h fits a 64-bit shard bitmap.
func TestDefaultLadderFieldCompat(t *testing.T) {
	for i, r := range DefaultLadder {
		if r.P.K+r.P.H > 64 {
			t.Errorf("rung %d: k+h = %d > 64", i, r.P.K+r.P.H)
		}
	}
	cfg := DefaultConfig()
	if k, h := cfg.MaxKH(); k != 32 || h != 12 {
		t.Errorf("MaxKH = (%d, %d), want (32, 12)", k, h)
	}
}

// TestLadderUpImmediate: sustained heavy loss walks the controller up to
// the deep rungs without waiting out a dwell period.
func TestLadderUpImmediate(t *testing.T) {
	c := New(testConfig(), nil)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		driveTG(c, rng, 0.2)
	}
	if got := c.Rung(); got != 4 {
		t.Fatalf("rung after 100 TGs at p=0.2: %d (p̂=%.3f), want 4", got, c.PHat())
	}
	if p := c.PHat(); p <= 0.12 || p > 0.28 {
		t.Fatalf("p̂ = %.3f, want in (0.12, 0.28]", p)
	}
}

// TestLadderDownNeedsDwellAndMargin: after loss subsides the controller
// steps down only after MinDwell observations and once p̂ clears the
// target band by DownMargin — probe TGs supply the exact samples that
// drag p̂ down through the censored regime.
func TestLadderDownNeedsDwellAndMargin(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, nil)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		driveTG(c, rng, 0.2)
	}
	up := c.Rung()
	if up < 4 {
		t.Fatalf("setup: rung %d after heavy loss, want ≥ 4", up)
	}
	// Loss vanishes. Down moves must wait out MinDwell observations since
	// the previous rung change (up moves are exempt by design).
	prevRung := c.Rung()
	lastChange := -1
	for i := 0; i < 3000; i++ {
		_, changed := driveTG(c, rng, 0.0005)
		if changed {
			if gap := i - lastChange; c.Rung() < prevRung && lastChange >= 0 && gap < cfg.MinDwell {
				t.Fatalf("down-retune after only %d TGs of dwell", gap)
			}
			prevRung = c.Rung()
			lastChange = i
		}
	}
	if got := c.Rung(); got > 1 {
		t.Fatalf("rung after 3000 TGs at p=0.0005: %d (p̂=%.4f), want ≤ 1", got, c.PHat())
	}
}

// TestCensoredStability: at a parity-heavy rung nearly every TG is
// censored (no NAK, a > 0). The imputation+probe estimator must hold p̂
// near truth instead of decaying toward zero and oscillating down the
// ladder.
func TestCensoredStability(t *testing.T) {
	cfg := testConfig()
	cfg.Initial = 4 // (k=8, h=12, a=6)
	c := New(cfg, nil)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		driveTG(c, rng, 0.2)
		if i > 200 {
			if r := c.Rung(); r != 4 {
				t.Fatalf("TG %d: rung drifted to %d (p̂=%.3f), want 4", i, r, c.PHat())
			}
		}
	}
	if p := c.PHat(); p <= 0.12 || p > 0.28 {
		t.Fatalf("steady-state p̂ = %.3f, want in (0.12, 0.28]", p)
	}
}

// TestShiftLowToHigh is the 0.1%→20% scenario at controller granularity:
// the working point converges to the deep rung after the shift.
func TestShiftLowToHigh(t *testing.T) {
	c := New(testConfig(), nil)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		driveTG(c, rng, 0.001)
	}
	// p=0.001 sits near the rung-0/rung-1 boundary (PMax 0.002); the
	// hysteresis may legitimately park one rung deep, but no deeper.
	if got := c.Rung(); got > 1 {
		t.Fatalf("rung at p=0.001: %d, want ≤ 1", got)
	}
	for i := 0; i < 300; i++ {
		driveTG(c, rng, 0.2)
	}
	if got := c.Rung(); got != 4 {
		t.Fatalf("rung 300 TGs after shift to p=0.2: %d (p̂=%.3f), want 4", got, c.PHat())
	}
}

// TestBurstDetector: equal-mean loss, different correlation. Scattered
// Bernoulli loss must read as memoryless; the same mean concentrated
// into bursts must trip the detector and provision one rung deeper.
func TestBurstDetector(t *testing.T) {
	cfg := testConfig()
	c := New(cfg, nil)
	rng := rand.New(rand.NewSource(5))
	// Bernoulli at p=0.0125: mean 0.4 losses per 32-packet TG.
	for i := 0; i < 120; i++ {
		driveTG(c, rng, 0.0125)
	}
	if c.Bursty() {
		t.Fatalf("Bernoulli loss classified bursty (D=%.2f)", c.disp)
	}
	memRung := c.Rung()
	// Same per-packet mean concentrated into bursts: each TG is hit with
	// probability 1/5 and then loses a run of 8 packets. Probe TGs sample
	// the process unbiased, so the dispersion ring sees the clustering.
	for i := 0; i < 400; i++ {
		prm, _ := c.Decide()
		def := 0
		if rng.Float64() < 0.2 {
			def = 8 - prm.A
		}
		c.Observe(prm.K, prm.A, def)
	}
	if !c.Bursty() {
		t.Fatalf("burst loss not detected (D=%.2f)", c.disp)
	}
	if got := c.Rung(); got <= memRung {
		t.Errorf("bursty state did not deepen the rung: %d vs %d memoryless", got, memRung)
	}
	// Hysteresis: back to scattered loss, the flag must clear once the
	// fully-observed window refills at the probe cadence.
	for i := 0; i < 600; i++ {
		driveTG(c, rng, 0.0125)
	}
	if c.Bursty() {
		t.Fatalf("burst flag stuck after return to Bernoulli loss (D=%.2f)", c.disp)
	}
}

// TestProbeCadence: every ProbeEvery-th Decide forces A=0 without
// touching the wire parameters or counting as a retune.
func TestProbeCadence(t *testing.T) {
	cfg := testConfig()
	cfg.Initial = 4
	c := New(cfg, nil)
	for i := 1; i <= 200; i++ {
		prm, _ := c.Decide()
		want := c.Params()
		if i%cfg.ProbeEvery == 0 {
			if prm.A != 0 {
				t.Fatalf("decide %d: probe TG has a=%d, want 0", i, prm.A)
			}
			if prm.K != want.K || prm.H != want.H {
				t.Fatalf("decide %d: probe changed wire params to (%d,%d)", i, prm.K, prm.H)
			}
		} else if prm.A != want.A || prm.K != want.K || prm.H != want.H {
			t.Fatalf("decide %d: %+v, want %+v", i, prm, want)
		}
		// Probes observe one lost packet in k; censored TGs impute.
		def := 0
		if prm.A == 0 {
			def = 1
		}
		c.Observe(prm.K, prm.A, def)
	}
}

// TestDeterminism: the decision schedule is a pure function of the
// observation sequence — two controllers fed identical sequences agree
// decision for decision.
func TestDeterminism(t *testing.T) {
	run := func() []Params {
		c := New(testConfig(), nil)
		rng := rand.New(rand.NewSource(7))
		var sched []Params
		for i := 0; i < 400; i++ {
			p := 0.001
			if i >= 150 {
				p = 0.2
			}
			prm, _ := driveTG(c, rng, p)
			sched = append(sched, prm)
		}
		return sched
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestMetrics: the np_adapt_* instruments track the controller state.
func TestMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(testConfig(), reg)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 120; i++ {
		driveTG(c, rng, 0.2)
	}
	get := func(name string) *metrics.Gauge { return reg.Gauge(name, "") }
	if got := get("np_adapt_rung").Value(); got != int64(c.Rung()) {
		t.Errorf("np_adapt_rung = %d, want %d", got, c.Rung())
	}
	p := c.Params()
	if got := get("np_adapt_k").Value(); got != int64(p.K) {
		t.Errorf("np_adapt_k = %d, want %d", got, p.K)
	}
	if got := get("np_adapt_h").Value(); got != int64(p.H) {
		t.Errorf("np_adapt_h = %d, want %d", got, p.H)
	}
	wantPPM := int64(c.PHat() * 1e6)
	if got := get("np_adapt_phat_ppm").Value(); got != wantPPM {
		t.Errorf("np_adapt_phat_ppm = %d, want %d", got, wantPPM)
	}
	if c.Retunes() == 0 {
		t.Fatal("expected at least one retune in the scenario")
	}
	retunes := reg.Counter("np_adapt_retunes_total", "")
	if got := retunes.Value(); got != c.Retunes() {
		t.Errorf("np_adapt_retunes_total = %d, want %d", got, c.Retunes())
	}
}
