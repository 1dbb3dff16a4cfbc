package core

import (
	"math/rand"
	"testing"
	"time"

	"rmfec/internal/loss"
	"rmfec/internal/model"
)

func TestOnDemandEncodingCountsOnlyWhatIsSent(t *testing.T) {
	cfg := baseConfig()
	h := newHarness(t, harnessOpts{
		r:   10,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.05, rng)
		},
		seed: 103,
	})
	msg := testMessage(8000, 104)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	st := h.sender.Stats()
	if st.Encoded != st.ParityTx {
		t.Errorf("on-demand mode encoded %d but sent %d parities", st.Encoded, st.ParityTx)
	}
	if st.Encoded >= h.sender.Groups()*h.sender.cfg.MaxParity {
		t.Error("on-demand mode encoded the full parity budget")
	}
}

func TestCarouselMode(t *testing.T) {
	// Integrated FEC 1: parities stream behind the data, no per-TG polls.
	// With the proactive budget above the worst per-group loss, no
	// feedback at all is needed.
	cfg := baseConfig()
	cfg.Carousel = true
	cfg.Proactive = 4
	h := newHarness(t, harnessOpts{
		r:   10,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.02, rng)
		},
		seed: 105,
	})
	msg := testMessage(10000, 106)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	st := h.sender.Stats()
	if st.PollTx != 0 {
		t.Errorf("carousel mode sent %d polls", st.PollTx)
	}
	if st.ParityTx < h.sender.Groups()*cfg.Proactive {
		t.Errorf("carousel sent %d parities, want at least %d proactive",
			st.ParityTx, h.sender.Groups()*cfg.Proactive)
	}
	if st.NakRx > 3 {
		t.Errorf("carousel with ample redundancy saw %d NAKs", st.NakRx)
	}
}

func TestCarouselBackstopRepairsHeavyLoss(t *testing.T) {
	// With a proactive budget below the loss level the FIN-triggered NAK
	// path must still complete the transfer.
	cfg := baseConfig()
	cfg.Carousel = true
	cfg.Proactive = 1
	h := newHarness(t, harnessOpts{
		r:   6,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.2, rng)
		},
		seed: 107,
	})
	msg := testMessage(6000, 108)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	if h.sender.Stats().NakServed == 0 {
		t.Error("heavy loss with a=1 should have required NAK service")
	}
}

func TestAdaptiveProactiveLearnsLossLevel(t *testing.T) {
	run := func(adaptive bool) SenderStats {
		cfg := baseConfig()
		cfg.Adaptive = adaptive
		h := newHarness(t, harnessOpts{
			r:   12,
			cfg: cfg,
			mkLoss: func(rng *rand.Rand) loss.Process {
				return loss.NewBernoulli(0.08, rng)
			},
			seed: 109,
		})
		msg := testMessage(40000, 110) // many groups so the EWMA can settle
		h.run(t, msg)
		h.checkDelivered(t, msg)
		return h.sender.Stats()
	}
	static := run(false)
	adaptive := run(true)
	if adaptive.NakServed >= static.NakServed {
		t.Errorf("adaptive mode should cut NAK service rounds: adaptive %d vs static %d",
			adaptive.NakServed, static.NakServed)
	}
	// Front-loading must not blow the parity budget: reactive rounds tend
	// to overshoot (duplicate service under feedback races), so total
	// redundancy should stay comparable or even drop.
	if float64(adaptive.ParityTx) > 1.5*float64(static.ParityTx) {
		t.Errorf("adaptive mode parity cost exploded: adaptive %d vs static %d",
			adaptive.ParityTx, static.ParityTx)
	}
	if adaptive.ParityTx == 0 {
		t.Error("adaptive mode sent no redundancy at 8% loss")
	}
}

func TestAdaptiveStaysQuietWithoutLoss(t *testing.T) {
	cfg := baseConfig()
	cfg.Adaptive = true
	h := newHarness(t, harnessOpts{r: 5, cfg: cfg, seed: 111})
	msg := testMessage(20000, 112)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	if p := h.sender.Stats().ParityTx; p != 0 {
		t.Errorf("adaptive sender emitted %d parities on a lossless network", p)
	}
}

func TestLazyStreamingInterleavesRepairs(t *testing.T) {
	// A repair round for an early group must preempt later groups' data:
	// with lazy refill the sender still serves NAKs promptly. Indirectly
	// verified by the repair round counter advancing before the transfer
	// ends and the transfer completing under loss.
	cfg := baseConfig()
	h := newHarness(t, harnessOpts{
		r:   8,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.1, rng)
		},
		seed: 113,
	})
	msg := testMessage(30000, 114)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	if h.sender.Stats().NakServed == 0 {
		t.Error("expected repair rounds under 10% loss")
	}
}

func TestGroupRecoveryLatency(t *testing.T) {
	// Lossless: a group completes as soon as its k-th shard lands, so the
	// per-group latency is (k-1) packet spacings plus jitter; under loss
	// the repair round adds at least the feedback gap.
	mk := func(p float64, seed int64) ReceiverStats {
		cfg := baseConfig()
		var lossFn func(rng *rand.Rand) loss.Process
		if p > 0 {
			lossFn = func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(p, rng) }
		}
		h := newHarness(t, harnessOpts{r: 3, cfg: cfg, mkLoss: lossFn, seed: seed})
		msg := testMessage(8000, seed+1)
		h.run(t, msg)
		h.checkDelivered(t, msg)
		return h.receivers[0].Stats()
	}
	lossless := mk(0, 200)
	if lossless.Groups == 0 {
		t.Fatal("no latency samples")
	}
	// 8 shards at 1 ms pacing: ~7 ms from first to last, plus <= 2 ms jitter.
	if got := lossless.MeanLatency(); got < 6*time.Millisecond || got > 12*time.Millisecond {
		t.Errorf("lossless mean group latency = %v, want ~7ms", got)
	}
	lossy := mk(0.15, 202)
	if lossy.MeanLatency() <= lossless.MeanLatency() {
		t.Errorf("lossy latency (%v) should exceed lossless (%v)",
			lossy.MeanLatency(), lossless.MeanLatency())
	}
	if lossy.LatencyMax < lossy.MeanLatency() {
		t.Error("max latency below mean")
	}
	if (ReceiverStats{}).MeanLatency() != 0 {
		t.Error("zero-sample MeanLatency should be 0")
	}
}

func TestLargeGroupTransferGF16(t *testing.T) {
	// K = 300 exceeds the GF(2^8) block limit; the engines must switch to
	// the GF(2^16) codec transparently and survive burst loss — the
	// "large transmission groups beat burst loss" result of Section 4.2 on
	// the live stack. Pacing matches the 25 pkt/s calibration of the burst
	// chain (at faster pacing the same chain produces much longer packet
	// bursts), and the NAK retry timeout scales with the 12 s group
	// duration.
	cfg := Config{
		Session: 7, K: 300, MaxParity: 60, ShardSize: 64,
		Delta:     40 * time.Millisecond,
		RetryBase: 4 * time.Second,
	}
	h := newHarness(t, harnessOpts{
		r:   5,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewMarkov(0.03, 2, 25, rng)
		},
		seed: 301,
	})
	msg := testMessage(300*64*2+123, 302) // a bit over two groups
	h.run(t, msg)
	h.checkDelivered(t, msg)
	st := h.sender.Stats()
	if st.ParityTx == 0 {
		t.Error("no parities under 3% burst loss")
	}
	em := float64(st.DataTx+st.ParityTx) / float64(h.sender.Groups()*cfg.K)
	if em > 1.25 {
		t.Errorf("large-group E[M] = %.3f, want close to 1", em)
	}
	for i, rc := range h.receivers {
		if rc.Stats().Decodes == 0 && rc.Stats().ParityRx > 0 {
			t.Errorf("receiver %d received parities but never decoded", i)
		}
	}
}

func TestNakSlotCapBoundsFeedbackLatency(t *testing.T) {
	// With K = 300, an uncapped slot schedule would delay a receiver
	// missing 1 packet by ~(300-1)*Ts = 3 s; the cap keeps the worst NAK
	// delay near MaxNakSlots*Ts. Measured indirectly: mean group recovery
	// latency for a large group must stay well below the uncapped delay.
	cfg := Config{
		Session: 7, K: 300, MaxParity: 60, ShardSize: 64,
		RetryBase: 4 * time.Second,
	}
	h := newHarness(t, harnessOpts{
		r:   4,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.01, rng)
		},
		seed: 310,
	})
	msg := testMessage(300*64*2, 311)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	for i, rc := range h.receivers {
		if max := rc.Stats().LatencyMax; max > 1500*time.Millisecond {
			t.Errorf("receiver %d: max group latency %v suggests uncapped NAK slots", i, max)
		}
	}
}

func TestLiveStackTracksIntegratedBound(t *testing.T) {
	// The implemented NP protocol, with all its feedback races and timers,
	// must track the idealized integrated-FEC bound of Eq. (6): equal or
	// above it, and within 25% for moderate populations.
	for _, tc := range []struct {
		r int
		p float64
	}{
		{5, 0.02}, {20, 0.05}, {40, 0.1},
	} {
		cfg := baseConfig()
		h := newHarness(t, harnessOpts{
			r:   tc.r,
			cfg: cfg,
			mkLoss: func(rng *rand.Rand) loss.Process {
				return loss.NewBernoulli(tc.p, rng)
			},
			seed: int64(400 + tc.r),
		})
		msg := testMessage(40000, int64(500+tc.r))
		h.run(t, msg)
		h.checkDelivered(t, msg)
		st := h.sender.Stats()
		em := float64(st.DataTx+st.ParityTx) / float64(h.sender.Groups()*cfg.K)
		bound := model.ExpectedTxIntegrated(cfg.K, 0, tc.r, tc.p)
		if em < bound-0.02 {
			t.Errorf("R=%d p=%g: live E[M] %.3f below the theoretical bound %.3f",
				tc.r, tc.p, em, bound)
		}
		if em > 1.25*bound {
			t.Errorf("R=%d p=%g: live E[M] %.3f strays >25%% above the bound %.3f",
				tc.r, tc.p, em, bound)
		}
	}
}
