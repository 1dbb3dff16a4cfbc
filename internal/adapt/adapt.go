// Package adapt implements the NP sender's adaptive FEC control plane:
// an online estimator of the worst-receiver loss rate fed by per-TG NAK
// deficits, a burst detector that distinguishes correlated (Markov) from
// memoryless (Bernoulli) loss, and a controller that retunes the codec
// parameters (k, h, a) between transmission groups by walking a
// deterministic loss→(k,h) ladder with hysteresis.
//
// # Observations and censoring
//
// After a TG's first transmission round (k data + a proactive parities)
// the sender learns the worst receiver's deficit l from the aggregated
// NAKs. The observation channel is one-sided:
//
//   - l > 0: the worst receiver holds k-l of the k+a packets, so it lost
//     exactly a+l of them — an exact sample.
//   - l = 0 and a = 0: nobody NAKed and nothing was sent beyond k, so the
//     worst receiver lost exactly 0 — also exact.
//   - l = 0 and a > 0: the observation is censored. The worst receiver
//     lost at most a packets, but NAK suppression hides how many. The
//     estimator imputes the EM-style conditional estimate min(p̂·(k+a), a)
//     so censored TGs neither drag p̂ toward zero nor add information.
//
// Imputation alone cannot move p̂ downward once every TG is censored (the
// imputed samples just echo the current estimate), so the controller
// schedules probe TGs: every ProbeEvery-th Decide returns the current
// rung's (k, h) with A = 0. A probe round is fully observable — its
// deficit equals the worst receiver's loss count — and anchors p̂ to
// ground truth in both directions at any rung. Probes never change the
// wire parameters and are scheduled by Decide-count, so the probe
// cadence is a deterministic function of the TG sequence.
//
// # Burst detection
//
// The detector computes the index of dispersion D = Var[L]/E[L] of the
// per-TG loss counts of the last Window fully-observed TGs — probe TGs
// and a=0 rungs, the only samples free of the censoring truncation (a
// NAK-triggered sample at a > 0 is conditioned on loss ≥ a+1 and would
// fake dispersion under memoryless loss). Memoryless loss gives
// Binomial counts with D = 1-p ≤ 1; correlated loss concentrates the
// same mean into bursts, inflating the variance (D well above 1, growing
// with the mean burst length). The bursty flag switches with hysteresis
// — enter at D ≥ BurstEnter, exit at D ≤ BurstExit — and while set the
// controller provisions one ladder rung deeper than p̂ alone selects,
// because parity repair within a TG degrades when losses cluster
// (paper §4.4: burst losses raise E[M] at fixed mean loss).
//
// # The ladder
//
// Rungs order (k, h, a) working points from lean (large k, few parities)
// to defensive (small k, parity-heavy, aggressive proactivity); rung i
// covers estimated loss rates up to Ladder[i].PMax. Retuning follows
// two asymmetric rules that together form the hysteresis band:
//
//   - Up (deeper) moves apply immediately: under-provisioning costs
//     repair rounds and latency on every group.
//   - Down (leaner) moves require the estimate to clear the target band
//     by DownMargin (p̂ ≤ PMax·(1-DownMargin)) and the current rung to
//     have dwelled at least MinDwell observations, so a noisy estimate
//     straddling a boundary cannot flap the codec.
//
// All state advances only through Observe and Decide, both called from
// the sender's engine goroutine; the package spawns no goroutines, reads
// no environment, and uses no wall clock, so a controller's decision
// sequence is a pure function of its observation sequence — the property
// the transcript-determinism tests pin.
package adapt

import (
	"errors"
	"fmt"
)

// Params is the codec working point the controller tunes between TGs.
type Params struct {
	K int // data shards per transmission group
	H int // parity shards encodable for the group (repair budget)
	A int // parities multicast proactively in the first round (0 ≤ A ≤ H)

	// Codec and CodecArg name the repair code of the rung using the TG
	// header's identifiers (packet.CodecRS / packet.CodecRect): 0/0 is
	// Reed-Solomon, 1/d the interleaved XOR rectangular code with d
	// classes (d must equal H). The sender's benchmark gate may still
	// veto a non-RS codec at runtime; the rung then falls back to RS at
	// the same (k, h, a).
	Codec    uint8
	CodecArg uint8
}

// Rung is one step of the loss→(k,h) ladder: the working point used while
// the estimated worst-receiver loss rate is at most PMax (and above the
// previous rung's PMax).
type Rung struct {
	PMax float64
	P    Params
}

// DefaultLadder spans 0.1%–50% loss with k+h ≤ 64 at every rung, so any
// rung's groups fit the 64-bit shard bitmaps of internal/field and the
// GF(2^8) codec fast paths. Working points follow the paper's Figs 11–16:
// lean groups at low loss (amortization dominates), small parity-heavy
// groups under heavy loss (per-group decode success dominates).
var DefaultLadder = []Rung{
	{PMax: 0.002, P: Params{K: 32, H: 4, A: 0}},
	{PMax: 0.01, P: Params{K: 24, H: 6, A: 1}},
	{PMax: 0.05, P: Params{K: 16, H: 8, A: 2}},
	{PMax: 0.12, P: Params{K: 12, H: 10, A: 3}},
	{PMax: 0.28, P: Params{K: 8, H: 12, A: 6}},
	{PMax: 1.0, P: Params{K: 4, H: 12, A: 8}},
}

// PortfolioLadder is DefaultLadder with the codec portfolio enabled: the
// low-loss rungs select the XOR-only rectangular code (codec id 1, arg =
// d = H), where scattered sub-percent loss rarely puts two erasures in
// one interleave class and the near-zero encode CPU dominates; deeper
// rungs keep Reed-Solomon, whose MDS repair power is worth its GF
// arithmetic once losses cluster. Working points (k, h, a) match
// DefaultLadder rung for rung, so the parity budget and schedule shape
// are unchanged — only the code, and therefore the per-group recovery
// rule, differs.
func PortfolioLadder() []Rung {
	l := make([]Rung, len(DefaultLadder))
	copy(l, DefaultLadder)
	for i := range l {
		if i < 2 { // rungs covering p̂ ≤ 1%
			l[i].P.Codec = 1
			l[i].P.CodecArg = uint8(l[i].P.H)
		}
	}
	return l
}

// Config parameterizes a Controller. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Window is the number of per-TG observations the estimator keeps.
	// Larger windows smooth p̂ at the cost of convergence lag after a
	// regime shift (the scenario tests shrink it to converge quickly).
	Window int
	// MinDwell is the minimum number of observations between a rung
	// change and a subsequent down (leaner) move; it also gates the very
	// first decision, so a handful of unlucky TGs at startup cannot jump
	// the ladder. Up moves are exempt.
	MinDwell int
	// DownMargin is the fractional clearance below the target band
	// required for a down move: p̂ ≤ PMax·(1-DownMargin).
	DownMargin float64
	// BurstEnter and BurstExit are the dispersion-index hysteresis
	// thresholds of the burst detector (enter ≥, exit ≤).
	BurstEnter float64
	BurstExit  float64
	// MinBurstObs is the minimum number of fully-observed (a=0) samples
	// accumulated before the detector updates its state; below it the
	// previous classification is retained.
	MinBurstObs int
	// ProbeEvery schedules a probe TG (A forced to 0) every ProbeEvery-th
	// Decide; 0 disables probing. Probes keep the estimator live at
	// censored (high-a) rungs; see the package comment.
	ProbeEvery int
	// Ladder is the loss→(k,h) table, ascending in PMax with the last
	// rung covering p̂ = 1.
	Ladder []Rung
	// Initial is the rung index the controller starts from.
	Initial int
}

// DefaultConfig returns the tuning used by the CLIs: a 48-TG window,
// 8-TG dwell, 30% down-margin, dispersion hysteresis 1.7/1.3, a probe
// every 16 TGs, and DefaultLadder.
func DefaultConfig() Config {
	return Config{
		Window:      48,
		MinDwell:    8,
		DownMargin:  0.3,
		BurstEnter:  1.7,
		BurstExit:   1.3,
		MinBurstObs: 8,
		ProbeEvery:  16,
		Ladder:      DefaultLadder,
		Initial:     0,
	}
}

// Validation errors.
var (
	ErrConfig = errors.New("adapt: invalid config")
)

// Validate checks cfg for internal consistency.
func (cfg Config) Validate() error {
	if cfg.Window < 4 {
		return fmt.Errorf("%w: Window %d < 4", ErrConfig, cfg.Window)
	}
	if cfg.MinDwell < 1 {
		return fmt.Errorf("%w: MinDwell %d < 1", ErrConfig, cfg.MinDwell)
	}
	if cfg.DownMargin < 0 || cfg.DownMargin >= 1 {
		return fmt.Errorf("%w: DownMargin %g outside [0,1)", ErrConfig, cfg.DownMargin)
	}
	if cfg.BurstExit <= 0 || cfg.BurstEnter < cfg.BurstExit {
		return fmt.Errorf("%w: burst thresholds enter %g / exit %g", ErrConfig, cfg.BurstEnter, cfg.BurstExit)
	}
	if cfg.MinBurstObs < 1 {
		return fmt.Errorf("%w: MinBurstObs %d < 1", ErrConfig, cfg.MinBurstObs)
	}
	if cfg.ProbeEvery < 0 {
		return fmt.Errorf("%w: ProbeEvery %d < 0", ErrConfig, cfg.ProbeEvery)
	}
	if len(cfg.Ladder) == 0 {
		return fmt.Errorf("%w: empty ladder", ErrConfig)
	}
	prev := 0.0
	for i, r := range cfg.Ladder {
		if r.PMax <= prev {
			return fmt.Errorf("%w: ladder rung %d PMax %g not ascending", ErrConfig, i, r.PMax)
		}
		prev = r.PMax
		if r.P.K < 1 || r.P.H < 1 {
			return fmt.Errorf("%w: ladder rung %d has k=%d h=%d", ErrConfig, i, r.P.K, r.P.H)
		}
		if r.P.A < 0 || r.P.A > r.P.H {
			return fmt.Errorf("%w: ladder rung %d has a=%d outside [0,h=%d]", ErrConfig, i, r.P.A, r.P.H)
		}
		switch r.P.Codec {
		case 0: // Reed-Solomon
			if r.P.CodecArg != 0 {
				return fmt.Errorf("%w: ladder rung %d RS codec arg %d != 0", ErrConfig, i, r.P.CodecArg)
			}
		case 1: // rectangular: arg is the class count d, which must be h
			if int(r.P.CodecArg) != r.P.H {
				return fmt.Errorf("%w: ladder rung %d rect codec arg %d != h %d", ErrConfig, i, r.P.CodecArg, r.P.H)
			}
			if r.P.K+r.P.H > 64 {
				return fmt.Errorf("%w: ladder rung %d rect codec needs k+h <= 64, got %d", ErrConfig, i, r.P.K+r.P.H)
			}
		default:
			return fmt.Errorf("%w: ladder rung %d unknown codec id %d", ErrConfig, i, r.P.Codec)
		}
	}
	if last := cfg.Ladder[len(cfg.Ladder)-1].PMax; last < 1 {
		return fmt.Errorf("%w: last rung PMax %g < 1; ladder must cover all loss rates", ErrConfig, last)
	}
	if cfg.Initial < 0 || cfg.Initial >= len(cfg.Ladder) {
		return fmt.Errorf("%w: Initial rung %d outside ladder of %d", ErrConfig, cfg.Initial, len(cfg.Ladder))
	}
	return nil
}

// MaxKH returns the largest K and largest H across the ladder — the
// bounds engines size their buffers and codec caches to.
func (cfg Config) MaxKH() (maxK, maxH int) {
	for _, r := range cfg.Ladder {
		if r.P.K > maxK {
			maxK = r.P.K
		}
		if r.P.H > maxH {
			maxH = r.P.H
		}
	}
	return maxK, maxH
}
