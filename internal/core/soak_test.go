package core

import (
	"bytes"
	"math/rand"
	"testing"

	"rmfec/internal/loss"
)

// TestSoakRandomConfigurations runs full NP transfers across a randomized
// slice of the configuration space — TG size, shard size, message size,
// redundancy mode, loss model and control-plane lossiness — and requires
// byte-identical delivery at every receiver, every time.
func TestSoakRandomConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	metaRng := rand.New(rand.NewSource(2026))
	const runs = 30
	for run := 0; run < runs; run++ {
		seed := metaRng.Int63()
		rng := rand.New(rand.NewSource(seed))

		cfg := Config{
			Session:   uint32(rng.Int31()),
			K:         2 + rng.Intn(30),
			ShardSize: 16 + rng.Intn(500),
			Proactive: rng.Intn(3),
			Adaptive:  rng.Intn(2) == 0,
			Carousel:  rng.Intn(4) == 0, // occasionally
		}
		if cfg.Proactive > 0 && cfg.Carousel {
			cfg.Proactive++ // carousels live off their proactive budget
		}
		nRecv := 1 + rng.Intn(12)
		msgLen := rng.Intn(40000)
		p := rng.Float64() * 0.25
		burst := rng.Intn(3) == 0
		loseCtl := rng.Intn(4) == 0

		mkLoss := func(r *rand.Rand) loss.Process {
			if p < 1e-6 {
				return nil
			}
			if burst && p > 0.001 {
				return loss.NewMarkov(p, 2, 25, r)
			}
			return loss.NewBernoulli(p, r)
		}
		h := newHarness(t, harnessOpts{
			r:    nRecv,
			cfg:  cfg,
			seed: seed,
			mkLoss: func(r *rand.Rand) loss.Process {
				return mkLoss(r)
			},
			loseControl: loseCtl,
		})
		msg := make([]byte, msgLen)
		rng.Read(msg)
		h.run(t, msg)
		for i, got := range h.delivered {
			if got == nil || !bytes.Equal(got, msg) {
				t.Fatalf("run %d (seed %d, cfg %+v, R=%d, p=%.3f, burst=%v, loseCtl=%v): "+
					"receiver %d corrupted/incomplete",
					run, seed, cfg, nRecv, p, burst, loseCtl, i)
			}
		}
	}
}

// TestSoakN2RandomConfigurations does the same for the ARQ baseline.
func TestSoakN2RandomConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	metaRng := rand.New(rand.NewSource(2027))
	const runs = 15
	for run := 0; run < runs; run++ {
		seed := metaRng.Int63()
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Session:   uint32(rng.Int31()),
			K:         1 + rng.Intn(8), // K unused by N2 but validated
			ShardSize: 16 + rng.Intn(400),
		}
		nRecv := 1 + rng.Intn(8)
		msgLen := rng.Intn(20000)
		p := rng.Float64() * 0.2
		h := newHarness(t, harnessOpts{
			r:   nRecv,
			cfg: cfg,
			n2:  true,
			mkLoss: func(r *rand.Rand) loss.Process {
				if p < 1e-6 {
					return nil
				}
				return loss.NewBernoulli(p, r)
			},
			seed: seed,
		})
		msg := make([]byte, msgLen)
		rng.Read(msg)
		h.run(t, msg)
		for i, got := range h.delivered {
			if got == nil || !bytes.Equal(got, msg) {
				t.Fatalf("run %d (seed %d): N2 receiver %d corrupted", run, seed, i)
			}
		}
	}
}
