package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rmfec/internal/adapt"
	"rmfec/internal/loss"
	"rmfec/internal/mcrun"
	"rmfec/internal/model"
	"rmfec/internal/simnet"
)

// shiftLoss switches from one loss process to another after a fixed number
// of draws, modelling a mid-transfer regime change. Draw counts are
// per-receiver and the underlying processes are seeded, so the shift point
// is deterministic in virtual time.
type shiftLoss struct {
	first, second loss.Process
	remaining     int
}

func (s *shiftLoss) Lost(dt float64) bool {
	if s.remaining > 0 {
		s.remaining--
		return s.first.Lost(dt)
	}
	return s.second.Lost(dt)
}

func (s *shiftLoss) Reset() { s.first.Reset(); s.second.Reset() }

// adaptiveConfig is the scenario tuning: the default ladder with a short
// estimator window and probe cadence so regime shifts converge within tens
// of groups instead of hundreds. NAK slots are tightened (Ts, MaxNakSlots)
// so first-round deficits arrive well inside the ObserveLag window even at
// the ladder's smallest group sizes — with the defaults, a worst-case NAK
// backoff spans several group airtimes and the estimator would read the
// deficit as zero.
func adaptiveConfig() Config {
	ac := adapt.DefaultConfig()
	ac.Window = 12
	ac.MinDwell = 4
	ac.MinBurstObs = 6
	ac.ProbeEvery = 4
	return Config{
		Session: 7, ShardSize: 64, AdaptiveFEC: true, Adapt: ac,
		Ts: 2 * time.Millisecond, MaxNakSlots: 4, ObserveLag: 6,
	}
}

func TestAdaptiveLosslessTransfer(t *testing.T) {
	h := newHarness(t, harnessOpts{r: 3, cfg: adaptiveConfig(), seed: 1001})
	msg := testMessage(40000, 1002)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	ctl := h.sender.ctl
	if ctl.Rung() != 0 {
		t.Errorf("lossless transfer moved to rung %d", ctl.Rung())
	}
	if n := ctl.Retunes(); n != 0 {
		t.Errorf("lossless transfer retuned %d times", n)
	}
	// Rung 0 is a=0: no proactive parities, and no repairs without loss.
	if st := h.sender.Stats(); st.ParityTx != 0 {
		t.Errorf("lossless adaptive transfer sent %d parities", st.ParityTx)
	}
}

// TestAdaptiveShiftUpMatchesModel is the headline loss-shift scenario: the
// channel degrades from 0.1% to 15% Bernoulli loss mid-transfer. The
// controller must climb to the ladder's (8,12) rung, and once settled the
// live per-group E[M] must agree with the paper's closed form at the new
// operating point. R = 1 keeps the protocol at the idealized model's
// operating point (exact deficits, no cross-receiver races); the analytic
// reference is the probe-aware mixture of the a=6 steady state and the a=0
// probe groups, weighted by the realized composition of the groups measured.
func TestAdaptiveShiftUpMatchesModel(t *testing.T) {
	// The post-shift rate sits mid-band on rung 4 ((0.12, 0.28], working
	// point (8,12,6)): NAK-triggered samples are conditioned on loss > a
	// and bias p̂ upward during the transient, so a rate within DownMargin
	// of a rung boundary (e.g. 0.20 vs 0.28·0.7 = 0.196) would leave the
	// controller legitimately parked one rung deeper.
	const (
		pLow, pHigh = 0.001, 0.15
		shiftDraws  = 600 // ~18 rung-0 groups before the regime change
	)
	cfg := adaptiveConfig()
	h := newHarness(t, harnessOpts{
		r:   1,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return &shiftLoss{
				first:     loss.NewBernoulli(pLow, rng),
				second:    loss.NewBernoulli(pHigh, rng),
				remaining: shiftDraws,
			}
		},
		seed: 1301,
	})
	msg := testMessage(300000, 1302)
	h.run(t, msg)
	h.checkDelivered(t, msg)

	ctl := h.sender.ctl
	if ctl.Retunes() == 0 {
		t.Fatal("0.1%→15% shift caused no retune")
	}
	// p = 0.15 falls in the (0.12, 0.28] band: rung 4, (k,h) = (8,12).
	wantP := cfg.Adapt.Ladder[4].P
	if got := ctl.Params(); got.K != wantP.K || got.H != wantP.H {
		t.Fatalf("converged to (k,h) = (%d,%d), want (%d,%d); p̂ = %.4f",
			got.K, got.H, wantP.K, wantP.H, ctl.PHat())
	}

	// Steady state: every group cut at the final working point, whether or
	// not a later excursion to a neighbouring rung interrupted the run of
	// them. The controller reaches rung 4 only after it has seen pHigh, and
	// it chooses a group's working point from earlier groups' feedback, so
	// each such group is one draw of (8,12,a) at pHigh. The unbroken suffix
	// alone would pin a trajectory: one late excursion leaves a few dozen
	// groups in it.
	var tail []*txGroup
	for _, tg := range h.sender.groups {
		if tg.k == wantP.K && tg.h == wantP.H {
			tail = append(tail, tg)
		}
	}
	if len(tail) < 150 {
		t.Fatalf("only %d steady-state groups at (%d,%d); message too short for a tight SE",
			len(tail), wantP.K, wantP.H)
	}

	// Live E[M] over the tail vs the probe-aware analytic mixture.
	var sum, sumSq float64
	var nProbe, nActive int
	for _, tg := range tail {
		em := float64(tg.txCount) / float64(tg.k)
		sum += em
		sumSq += em * em
		switch tg.aUsed {
		case 0:
			nProbe++
		case wantP.A:
			nActive++
		default:
			t.Fatalf("group %d sent a=%d proactive parities, want 0 (probe) or %d", tg.index, tg.aUsed, wantP.A)
		}
	}
	n := float64(len(tail))
	liveEM := sum / n
	se := math.Sqrt((sumSq-sum*sum/n)/(n-1)) / math.Sqrt(n)
	if nProbe == 0 {
		t.Fatal("steady-state tail contains no probe groups; probe cadence broken")
	}
	emActive := model.ExpectedTxIntegratedFinite(wantP.K, wantP.H, wantP.A, 1, pHigh)
	emProbe := model.ExpectedTxIntegratedFinite(wantP.K, wantP.H, 0, 1, pHigh)
	wantEM := (float64(nActive)*emActive + float64(nProbe)*emProbe) / n
	if se <= 0 || math.IsNaN(se) {
		t.Fatalf("degenerate standard error %v", se)
	}
	if diff := math.Abs(liveEM - wantEM); diff > 3*se {
		t.Errorf("steady-state E[M] = %.4f (SE %.4f, %d groups) vs analytic mixture %.4f: |diff| = %.4f > 3 SE = %.4f",
			liveEM, se, len(tail), wantEM, diff, 3*se)
	}
}

// TestAdaptiveBurstDetectorDeepensRung shifts Bernoulli loss to Markov
// (burst) loss at the same mean rate, over 20 seeds. The mean alone would
// keep the controller at rung 2; clustered losses (paper §4.4: they degrade
// within-group parity repair at fixed mean loss) must leave at least 18
// runs at rung 3 or deeper. Whether the burst detector's flag is what got
// them there varies by seed, so the bursty count is logged, not asserted.
func TestAdaptiveBurstDetectorDeepensRung(t *testing.T) {
	const (
		p          = 0.03 // inside rung 2's (0.01, 0.05] band
		shiftDraws = 1500
		// The sender paces one packet per Delta = 1ms, so the Markov
		// process sees ~1000 pkt/s; matching rates keeps the mean burst a
		// realistic 4 consecutive packets rather than a sticky outage.
		pktRate = 1000
		seeds   = 20
	)
	deep, bursty := 0, 0
	for i := int64(0); i < seeds; i++ {
		seed := 1401 + 10*i
		h := newHarness(t, harnessOpts{
			r:   2,
			cfg: adaptiveConfig(),
			mkLoss: func(rng *rand.Rand) loss.Process {
				return &shiftLoss{
					first:     loss.NewBernoulli(p, rng),
					second:    loss.NewMarkov(p, 4, pktRate, rng),
					remaining: shiftDraws,
				}
			},
			seed: seed,
		})
		msg := testMessage(400000, seed+1)
		h.run(t, msg)
		h.checkDelivered(t, msg)
		ctl := h.sender.ctl
		if ctl.Rung() >= 3 {
			deep++
		}
		if ctl.Bursty() {
			bursty++
		}
		t.Logf("seed %d: rung %d, bursty %v (D = %.2f, p̂ = %.4f)", seed, ctl.Rung(), ctl.Bursty(), ctl.Dispersion(), ctl.PHat())
	}
	t.Logf("%d/%d runs at rung ≥ 3, bursty flag set in %d/%d", deep, seeds, bursty, seeds)
	if deep < 18 {
		t.Errorf("bursty channel left the controller at rung ≥ 3 in %d/%d runs, want ≥ 18 (one deeper than the mean-loss band)", deep, seeds)
	}
}

// retuneSchedule renders the complete parameter trajectory of an adaptive
// transfer: one record per transmission group in stream order, plus the
// final controller state. Two runs with equal schedules negotiated the
// same (k, h, a) at the same group boundaries.
func retuneSchedule(s *Sender) string {
	var b strings.Builder
	for _, tg := range s.groups {
		fmt.Fprintf(&b, "%d:(%d,%d,a%d);", tg.index, tg.k, tg.h, tg.aUsed)
	}
	fmt.Fprintf(&b, "|retunes=%d|rung=%d", s.ctl.Retunes(), s.ctl.Rung())
	return b.String()
}

// runAdaptiveShiftScenario executes one seeded loss-shift transfer and
// returns the retune schedule and the delivered payloads.
func runAdaptiveShiftScenario(t testing.TB, cfg Config, seed int64) (string, [][]byte) {
	h := newHarness(t, harnessOpts{
		r:   2,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return &shiftLoss{
				first:     loss.NewBernoulli(0.02, rng),
				second:    loss.NewBernoulli(0.15, rng),
				remaining: 700,
			}
		},
		seed: seed,
	})
	msg := testMessage(80000, seed+1)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	return retuneSchedule(h.sender), h.delivered
}

// TestAdaptiveRetuneScheduleDeterministic pins the acceptance property that
// the encode pipeline is invisible to the control plane: the retune
// schedule is byte-identical at pipeline depth 0 and at any depth and
// worker count. Batch is pinned to 1 so pacing (and therefore
// virtual-time feedback arrival) matches the serial reference.
func TestAdaptiveRetuneScheduleDeterministic(t *testing.T) {
	variants := []PipelineConfig{
		{},
		{Depth: 4, Workers: 1, Batch: 1},
		{Depth: 4, Workers: 4, Batch: 1},
		{Depth: 8, Workers: 3, Batch: 1},
	}
	var refSched string
	var refDeliv [][]byte
	for i, pc := range variants {
		cfg := adaptiveConfig()
		cfg.Pipeline = pc
		sched, deliv := runAdaptiveShiftScenario(t, cfg, 1501)
		if i == 0 {
			refSched, refDeliv = sched, deliv
			if sched == "" {
				t.Fatal("empty reference schedule")
			}
			continue
		}
		if sched != refSched {
			t.Errorf("pipeline %+v diverged from the serial retune schedule:\n got %s\nwant %s", pc, sched, refSched)
		}
		for j := range deliv {
			if !bytes.Equal(deliv[j], refDeliv[j]) {
				t.Errorf("pipeline %+v: receiver %d delivery differs from serial run", pc, j)
			}
		}
	}
	if !strings.Contains(refSched, "retunes=") || strings.Contains(refSched, "retunes=0") {
		t.Errorf("scenario produced no retunes; determinism check is vacuous: %s", refSched)
	}
}

// TestAdaptiveMcrunWorkerInvariance runs a batch of adaptive loss-shift
// sessions through the mcrun harness at one and four workers: schedules
// and deliveries must be a pure function of the seed, independent of
// worker count and scheduling.
func TestAdaptiveMcrunWorkerInvariance(t *testing.T) {
	seeds := []int64{
		mcrun.DeriveSeed(42, "adapt/shift/0"),
		mcrun.DeriveSeed(42, "adapt/shift/1"),
		mcrun.DeriveSeed(42, "adapt/shift/2"),
		mcrun.DeriveSeed(42, "adapt/shift/3"),
	}
	run := func(workers int) []string {
		jobs := make([]func() string, len(seeds))
		for i, seed := range seeds {
			seed := seed
			jobs[i] = func() string {
				sched, _ := runAdaptiveShiftScenario(t, adaptiveConfig(), seed)
				return sched
			}
		}
		return mcrun.Run(workers, jobs)
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("seed %d: schedule differs between 1 and 4 mcrun workers:\n got %s\nwant %s",
				seeds[i], parallel[i], serial[i])
		}
	}
}

// TestLegacyReceiverRejectsAdaptiveSession is the wire-compatibility story:
// a static receiver sharing the medium with an adaptive session must refuse
// every frame cleanly — no panic, no misparse, no partial delivery, and no
// NAK chatter — while an adaptive receiver on the same medium completes. An
// N2 receiver of the same Session refuses it too: N2 is the one static
// config whose FIN states H = 0, like the session's, but at k = 1, where no
// rung of the ladder starts.
func TestLegacyReceiverRejectsAdaptiveSession(t *testing.T) {
	sched := simnet.NewScheduler()
	sched.MaxEvents = 5_000_000
	rng := rand.New(rand.NewSource(1601))
	net := simnet.NewNetwork(sched, rng)

	cfgA := adaptiveConfig()
	senderNode := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	s, err := NewSender(senderNode, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	senderNode.SetHandler(s.HandlePacket)

	var gotV2 []byte
	v2Node := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	rcV2, err := NewReceiver(v2Node, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	rcV2.OnComplete = func(m []byte) { gotV2 = m }
	v2Node.SetHandler(rcV2.HandlePacket)

	// Same session ID, but a plain static configuration: no rung of the
	// ladder is its working point (8, 32, RS), and the session's FIN states
	// H = 0, so every frame is refused.
	cfgV1 := Config{Session: cfgA.Session, K: 8, ShardSize: 64}
	var gotV1 []byte
	v1Node := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	rcV1, err := NewReceiver(v1Node, cfgV1)
	if err != nil {
		t.Fatal(err)
	}
	rcV1.OnComplete = func(m []byte) { gotV1 = m }
	v1Node.SetHandler(rcV1.HandlePacket)

	var gotN2 []byte
	n2Node := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	rcN2, err := NewReceiverN2(n2Node, Config{Session: cfgA.Session, K: 1, ShardSize: cfgA.ShardSize})
	if err != nil {
		t.Fatal(err)
	}
	rcN2.OnComplete = func(m []byte) { gotN2 = m }
	n2Node.SetHandler(rcN2.HandlePacket)

	msg := testMessage(30000, 1602)
	if err := s.Send(msg); err != nil {
		t.Fatal(err)
	}
	sched.Run()

	if !bytes.Equal(gotV2, msg) {
		t.Fatal("v2 receiver failed to complete the adaptive transfer")
	}
	if gotV1 != nil {
		t.Fatalf("v1 receiver delivered %d bytes from a v2 session", len(gotV1))
	}
	if gotN2 != nil || rcN2.Complete() {
		t.Fatalf("N2 receiver delivered %d bytes from a v2 session", len(gotN2))
	}
	for name, rc := range map[string]*Receiver{"v1": rcV1, "N2": rcN2} {
		st := rc.Stats()
		if st.DataRx != 0 || st.ParityRx != 0 || st.PollRx != 0 || st.NakTx != 0 || st.Decodes != 0 {
			t.Errorf("%s receiver acted on v2 frames: %+v", name, st)
		}
	}
}

// rampLoss raises the Bernoulli loss rate linearly from p0 to p1 over span
// draws, then holds at p1 — the slow congestion build-up that tests the
// estimator's tracking rather than its step response.
type rampLoss struct {
	p0, p1 float64
	span   int
	drawn  int
	rng    *rand.Rand
}

func (r *rampLoss) Lost(float64) bool {
	p := r.p1
	if r.drawn < r.span {
		p = r.p0 + (r.p1-r.p0)*float64(r.drawn)/float64(r.span)
		r.drawn++
	}
	return r.rng.Float64() < p
}

func (r *rampLoss) Reset() { r.drawn = 0 }

// TestAdaptiveScenarioCurves is the loss-shift catalogue: four seeded
// two-receiver transfers whose complete convergence curve — every group's
// negotiated (k, h, a), its realized transmissions and the cumulative E[M],
// then the controller's final state — is pinned byte for byte against
// results/adapt_<name>.tsv, the files EXPERIMENTS.md "Loss-shift scenarios"
// plots. There is no update switch: on a mismatch the regenerated file is
// left under os.TempDir(), and a change that means to move the curves
// (wire semantics, controller tuning) re-records with a cp.
func TestAdaptiveScenarioCurves(t *testing.T) {
	scenarios := []struct {
		name, describe string
		seed           int64
		bytes          int
		mkLoss         func(rng *rand.Rand) loss.Process
		wantRung       int // minimum acceptable final rung
	}{
		{
			name:     "adapt_shift_up",
			describe: "Bernoulli loss 0.1% -> 15% after ~600 packets; expect convergence to rung 4 (k=8,h=12,a=6)",
			seed:     1301, bytes: 300000, wantRung: 4,
			mkLoss: func(rng *rand.Rand) loss.Process {
				return &shiftLoss{
					first:     loss.NewBernoulli(0.001, rng),
					second:    loss.NewBernoulli(0.15, rng),
					remaining: 600,
				}
			},
		},
		{
			name:     "adapt_burst",
			describe: "Bernoulli 3% -> Markov 3% (mean burst 4 pkts) after ~1500 packets; expect the burst detector to deepen the rung",
			seed:     1401, bytes: 400000, wantRung: 3,
			mkLoss: func(rng *rand.Rand) loss.Process {
				return &shiftLoss{
					first:     loss.NewBernoulli(0.03, rng),
					second:    loss.NewMarkov(0.03, 4, 1000, rng),
					remaining: 1500,
				}
			},
		},
		{
			name:     "adapt_ramp",
			describe: "Bernoulli loss ramping 0.5% -> 10% over ~2500 packets; expect the estimator to walk the ladder down to rung 3 without a step change to react to",
			seed:     1501, bytes: 400000, wantRung: 3,
			mkLoss: func(rng *rand.Rand) loss.Process {
				return &rampLoss{p0: 0.005, p1: 0.10, span: 2500, rng: rng}
			},
		},
		{
			// Star/FBT shared backbone: both receivers draw from the same
			// fixed-seed source, not from the harness's.
			name:     "adapt_star_shift",
			describe: "star/FBT shared backbone: every receiver draws the identical loss stream (fixed seed), 1% -> 12% after ~800 packets; expect rung 3 even though aggregated NAKs collapse the correlated deficits to one report",
			seed:     1601, bytes: 350000, wantRung: 3,
			mkLoss: func(*rand.Rand) loss.Process {
				shared := rand.New(rand.NewSource(1602))
				return &shiftLoss{
					first:     loss.NewBernoulli(0.01, shared),
					second:    loss.NewBernoulli(0.12, shared),
					remaining: 800,
				}
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			h := newHarness(t, harnessOpts{r: 2, cfg: adaptiveConfig(), mkLoss: sc.mkLoss, seed: sc.seed})
			msg := testMessage(sc.bytes, sc.seed+1)
			h.run(t, msg)
			h.checkDelivered(t, msg)

			var b bytes.Buffer
			fmt.Fprintf(&b, "# %s: %s\n", sc.name, sc.describe)
			b.WriteString("# x: transmission group (stream order), y: negotiated parameters and realized cost\n")
			b.WriteString("group\tk\th\ta\ttx\tem_cum\n")
			var txSum, srcSum int
			for _, g := range h.sender.GroupTrace() {
				txSum += g.TxCount
				srcSum += g.K
				fmt.Fprintf(&b, "%d\t%d\t%d\t%d\t%d\t%.4f\n",
					g.Index, g.K, g.H, g.AUsed, g.TxCount, float64(txSum)/float64(srcSum))
			}
			ctl := h.sender.Adapt()
			p := ctl.Params()
			final := fmt.Sprintf("# final: phat=%.4f rung=%d k=%d h=%d a=%d retunes=%d bursty=%v em=%.4f",
				ctl.PHat(), ctl.Rung(), p.K, p.H, p.A, ctl.Retunes(), ctl.Bursty(), float64(txSum)/float64(srcSum))
			fmt.Fprintln(&b, final)

			if ctl.Rung() < sc.wantRung {
				t.Errorf("converged to rung %d, want >= %d", ctl.Rung(), sc.wantRung)
			}
			golden := filepath.Join("..", "..", "results", sc.name+".tsv")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(b.Bytes(), want) {
				return
			}
			fresh := filepath.Join(os.TempDir(), sc.name+".tsv")
			if err := os.WriteFile(fresh, b.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			got, wantRows := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
			row := 0
			for row < len(got) && row < len(wantRows) && got[row] == wantRows[row] {
				row++
			}
			at := func(rows []string) string {
				if row < len(rows) {
					return rows[row]
				}
				return "<end of file>"
			}
			t.Errorf("curve differs from %s at line %d:\n got %q\nwant %q\nregenerated %s\nfresh file left at %s (cp it over the golden to re-record)",
				golden, row+1, at(got), at(wantRows), final, fresh)
		})
	}
}
