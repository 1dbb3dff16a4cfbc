package adapt

import (
	"rmfec/internal/metrics"
)

// sample is one per-TG observation: the worst receiver's first-round loss
// count (imputed when censored) out of the sent packets it is drawn from.
type sample struct {
	loss  float64
	sent  float64
	exact bool
}

// Controller is the adaptive FEC control loop. It is not safe for
// concurrent use: the sender calls Observe and Decide from its engine
// goroutine only, which is what makes the decision sequence a pure
// function of the observation sequence.
type Controller struct {
	cfg Config

	win  []sample // ring buffer of the last Window observations
	n    int      // filled entries
	next int      // ring write index

	// exwin holds the loss counts of the last Window fully-observed TGs
	// (a = 0: probe TGs and a=0 rungs), the only unbiased samples of the
	// per-TG loss distribution — NAK-triggered exact samples at a > 0 are
	// truncated to the distribution's tail (loss ≥ a+1) and would fake
	// dispersion under memoryless loss. The burst detector reads this
	// ring, so it stays live at censored rungs at the probe cadence.
	exwin  []float64
	exn    int
	exnext int

	phat   float64 // windowed worst-receiver loss estimate
	disp   float64 // index of dispersion of exact loss counts
	bursty bool

	rung    int
	dwell   int // observations since the last rung change
	seen    int // total observations
	decides int // Decide calls; drives the probe cadence
	retunes uint64

	m ctlMetrics
}

// ctlMetrics is the controller's instrument set; the zero value (all nil)
// disables instrumentation.
type ctlMetrics struct {
	phat        *metrics.Gauge
	disp        *metrics.Gauge
	bursty      *metrics.Gauge
	rung        *metrics.Gauge
	k, h, a     *metrics.Gauge
	retunes     *metrics.Counter
	obsExact    *metrics.Counter
	obsCensored *metrics.Counter
}

func newCtlMetrics(r *metrics.Registry) ctlMetrics {
	if r == nil {
		return ctlMetrics{}
	}
	obs := func(kind string) *metrics.Counter {
		return r.Counter("np_adapt_observations_total",
			"per-TG loss observations ingested by the estimator: exact (NAK deficit, or no NAK at a=0) vs censored (no NAK at a>0, imputed)",
			metrics.Label{Key: "kind", Value: kind})
	}
	return ctlMetrics{
		phat: r.Gauge("np_adapt_phat_ppm",
			"windowed worst-receiver loss-rate estimate p-hat, parts per million"),
		disp: r.Gauge("np_adapt_dispersion_milli",
			"index of dispersion (var/mean, x1000) of windowed exact per-TG loss counts; ~1000x(1-p) for Bernoulli loss, well above 1000 for bursts"),
		bursty: r.Gauge("np_adapt_bursty",
			"burst detector state: 1 while loss is classified as correlated (Markov), 0 while memoryless"),
		rung: r.Gauge("np_adapt_rung",
			"current loss-ladder rung index (0 = leanest redundancy)"),
		k: r.Gauge("np_adapt_k",
			"data shards per TG of the current working point"),
		h: r.Gauge("np_adapt_h",
			"parity budget per TG of the current working point"),
		a: r.Gauge("np_adapt_a",
			"proactive parities per first round of the current working point"),
		retunes: r.Counter("np_adapt_retunes_total",
			"ladder rung changes applied between transmission groups"),
		obsExact:    obs("exact"),
		obsCensored: obs("censored"),
	}
}

// New builds a controller for cfg, registering np_adapt_* instruments on
// reg (nil disables instrumentation). cfg must have passed Validate.
func New(cfg Config, reg *metrics.Registry) *Controller {
	c := &Controller{
		cfg:   cfg,
		win:   make([]sample, cfg.Window),
		exwin: make([]float64, cfg.Window),
		rung:  cfg.Initial,
		m:     newCtlMetrics(reg),
	}
	c.publishPoint()
	return c
}

// Observe ingests one TG's first-round outcome: the group used k data
// shards and a proactive parities (a = 0 for probe TGs), and the worst
// deficit aggregated from its first-round NAKs was deficit (0 when no
// receiver NAKed). Call exactly once per TG, in transmission order.
func (c *Controller) Observe(k, a, deficit int) {
	if deficit > k {
		deficit = k // protocol invariant: a receiver can need at most k
	}
	sent := float64(k + a)
	var s sample
	switch {
	case deficit > 0:
		// The worst receiver holds k-deficit of the k+a first-round
		// packets, so it lost exactly a+deficit of them.
		s = sample{loss: float64(a + deficit), sent: sent, exact: true}
	case a == 0:
		s = sample{loss: 0, sent: sent, exact: true}
	default:
		// Censored at a: impute the EM-style estimate so the sample
		// carries the current belief instead of a spurious zero.
		est := c.phat * sent
		if lim := float64(a); est > lim {
			est = lim
		}
		s = sample{loss: est, sent: sent}
	}
	c.win[c.next] = s
	c.next++
	if c.next == len(c.win) {
		c.next = 0
	}
	if c.n < len(c.win) {
		c.n++
	}
	if a == 0 {
		c.exwin[c.exnext] = s.loss
		c.exnext++
		if c.exnext == len(c.exwin) {
			c.exnext = 0
		}
		if c.exn < len(c.exwin) {
			c.exn++
		}
	}
	c.seen++
	c.dwell++
	c.refresh()
	if c.m.phat != nil {
		c.m.phat.Set(int64(c.phat * 1e6))
		c.m.disp.Set(int64(c.disp * 1e3))
		if s.exact {
			c.m.obsExact.Inc()
		} else {
			c.m.obsCensored.Inc()
		}
	}
}

// refresh recomputes p̂ and the dispersion index over the window. A full
// O(Window) pass per observation sidesteps the float drift of running
// sums; Window is small, so the cost is noise next to one TG's encode.
func (c *Controller) refresh() {
	var sumL, sumS float64
	for i := 0; i < c.n; i++ {
		sumL += c.win[i].loss
		sumS += c.win[i].sent
	}
	if sumS > 0 {
		c.phat = sumL / sumS
	}
	if c.exn < c.cfg.MinBurstObs {
		return // retain the previous classification
	}
	var mean float64
	for i := 0; i < c.exn; i++ {
		mean += c.exwin[i]
	}
	mean /= float64(c.exn)
	if mean <= 0 {
		c.disp = 0
		return
	}
	var varsum float64
	for i := 0; i < c.exn; i++ {
		d := c.exwin[i] - mean
		varsum += d * d
	}
	c.disp = varsum / float64(c.exn) / mean
}

// Decide returns the working point for the next TG and whether the wire
// parameters (k, h) changed — a retune the sender must renegotiate at the
// TG boundary. Call exactly once per TG cut, in group order. Probe TGs
// return the rung's (k, h) with A = 0 and never count as a retune.
func (c *Controller) Decide() (Params, bool) {
	c.decides++
	changed := false
	if c.seen >= c.cfg.MinDwell {
		if c.bursty {
			if c.disp <= c.cfg.BurstExit {
				c.bursty = false
			}
		} else if c.disp >= c.cfg.BurstEnter {
			c.bursty = true
		}
		target := 0
		for target < len(c.cfg.Ladder)-1 && c.phat > c.cfg.Ladder[target].PMax {
			target++
		}
		if c.bursty && target < len(c.cfg.Ladder)-1 {
			target++
		}
		switch {
		case target > c.rung:
			c.rung, changed = target, true
		case target < c.rung && c.dwell >= c.cfg.MinDwell &&
			c.phat <= c.cfg.Ladder[target].PMax*(1-c.cfg.DownMargin):
			c.rung, changed = target, true
		}
		if changed {
			c.dwell = 0
			c.retunes++
			// The dispersion ring only makes sense over samples drawn at
			// one working point — counts from different k mix means and
			// read as fake dispersion — so a retune restarts it. The
			// bursty classification is retained until the refilled ring
			// provides MinBurstObs samples of fresh evidence.
			c.exn, c.exnext = 0, 0
		}
	}
	p := c.cfg.Ladder[c.rung].P
	if c.cfg.ProbeEvery > 0 && c.decides%c.cfg.ProbeEvery == 0 {
		p.A = 0
	}
	if c.m.phat != nil {
		if changed {
			c.m.retunes.Inc()
		}
		c.publishPoint()
	}
	return p, changed
}

// publishPoint mirrors the current working point into the gauges.
func (c *Controller) publishPoint() {
	if c.m.phat == nil {
		return
	}
	p := c.cfg.Ladder[c.rung].P
	c.m.rung.Set(int64(c.rung))
	c.m.k.Set(int64(p.K))
	c.m.h.Set(int64(p.H))
	c.m.a.Set(int64(p.A))
	if c.bursty {
		c.m.bursty.Set(1)
	} else {
		c.m.bursty.Set(0)
	}
}

// PHat returns the current windowed loss estimate.
func (c *Controller) PHat() float64 { return c.phat }

// Bursty reports the burst detector's state.
func (c *Controller) Bursty() bool { return c.bursty }

// Rung returns the current ladder rung index.
func (c *Controller) Rung() int { return c.rung }

// Params returns the current rung's working point (ignoring probes).
func (c *Controller) Params() Params { return c.cfg.Ladder[c.rung].P }

// Retunes returns the number of rung changes applied so far.
func (c *Controller) Retunes() uint64 { return c.retunes }
