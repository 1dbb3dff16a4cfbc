package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"rmfec/internal/loss"
	"rmfec/internal/simnet"
)

// harness wires one NP or N2 sender and R receivers onto a simulated
// multicast network.
type harness struct {
	sched     *simnet.Scheduler
	net       *simnet.Network
	nodes     []*simnet.Node // the sender's first, then the receivers'
	sender    *Sender
	receivers []*Receiver
	delivered [][]byte
}

type harnessOpts struct {
	r           int
	cfg         Config
	seed        int64
	mkLoss      func(rng *rand.Rand) loss.Process // per receiver; nil = lossless
	loseControl bool
	lossyCtlR   int // receivers 0..lossyCtlR-1 lose control frames even without loseControl
	n2          bool
	// senderEnv, if set, wraps the sender's node (e.g. to record its wire
	// transcript); the node itself still receives the NAKs.
	senderEnv func(*simnet.Node) Env
}

func newHarness(t testing.TB, o harnessOpts) *harness {
	t.Helper()
	h := &harness{sched: simnet.NewScheduler()}
	h.sched.MaxEvents = 20_000_000
	rng := rand.New(rand.NewSource(o.seed))
	h.net = simnet.NewNetwork(h.sched, rng)

	senderNode := h.net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond, Jitter: time.Millisecond})
	h.nodes = append(h.nodes, senderNode)
	var env Env = senderNode
	if o.senderEnv != nil {
		env = o.senderEnv(senderNode)
	}
	newSender, newReceiver := NewSender, NewReceiver
	if o.n2 {
		newSender, newReceiver = NewSenderN2, NewReceiverN2
	}
	s, err := newSender(env, o.cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.sender = s
	senderNode.SetHandler(s.HandlePacket)

	h.delivered = make([][]byte, o.r)
	for i := 0; i < o.r; i++ {
		var lp loss.Process
		if o.mkLoss != nil {
			lp = o.mkLoss(rng)
		}
		node := h.net.AddNode(simnet.NodeConfig{
			Delay:       2 * time.Millisecond,
			Jitter:      time.Millisecond,
			Loss:        lp,
			LoseControl: o.loseControl || i < o.lossyCtlR,
		})
		h.nodes = append(h.nodes, node)
		idx := i
		rc, err := newReceiver(node, o.cfg)
		if err != nil {
			t.Fatal(err)
		}
		rc.OnComplete = func(msg []byte) { h.delivered[idx] = msg }
		h.receivers = append(h.receivers, rc)
		node.SetHandler(rc.HandlePacket)
	}
	return h
}

func (h *harness) run(t testing.TB, msg []byte) {
	t.Helper()
	if err := h.sender.Send(msg); err != nil {
		t.Fatal(err)
	}
	h.sched.Run()
}

func (h *harness) checkDelivered(t testing.TB, msg []byte) {
	t.Helper()
	for i, got := range h.delivered {
		if got == nil {
			t.Fatalf("receiver %d never completed", i)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("receiver %d got %d bytes, corrupted delivery", i, len(got))
		}
	}
}

func testMessage(n int, seed int64) []byte {
	msg := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(msg)
	return msg
}

func baseConfig() Config {
	return Config{Session: 7, K: 8, ShardSize: 64}
}

func TestNPLosslessTransfer(t *testing.T) {
	h := newHarness(t, harnessOpts{r: 5, cfg: baseConfig(), seed: 1})
	msg := testMessage(3000, 2)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	st := h.sender.Stats()
	if st.ParityTx != 0 {
		t.Errorf("lossless transfer sent %d parities", st.ParityTx)
	}
	if st.NakRx != 0 {
		t.Errorf("lossless transfer saw %d NAKs", st.NakRx)
	}
	wantData := h.sender.Groups() * 8
	if st.DataTx != wantData {
		t.Errorf("DataTx = %d, want %d", st.DataTx, wantData)
	}
	for i, rc := range h.receivers {
		if rc.Stats().Decodes != 0 {
			t.Errorf("receiver %d decoded despite no loss", i)
		}
	}
}

func TestNPLossyTransfer(t *testing.T) {
	cfg := baseConfig()
	h := newHarness(t, harnessOpts{
		r:   20,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.05, rng)
		},
		seed: 3,
	})
	msg := testMessage(10000, 4)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	st := h.sender.Stats()
	if st.ParityTx == 0 {
		t.Error("lossy transfer repaired without parities?")
	}
	// Parity efficiency: one parity repairs different losses at different
	// receivers, so the overhead should stay far below per-receiver ARQ.
	if ratio := float64(st.ParityTx) / float64(st.DataTx); ratio > 0.8 {
		t.Errorf("parity overhead ratio %.2f too high", ratio)
	}
}

func TestNPHeavyLoss(t *testing.T) {
	cfg := baseConfig()
	h := newHarness(t, harnessOpts{
		r:   5,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.3, rng)
		},
		seed: 5,
	})
	msg := testMessage(5000, 6)
	h.run(t, msg)
	h.checkDelivered(t, msg)
}

func TestNPBurstLoss(t *testing.T) {
	cfg := baseConfig()
	h := newHarness(t, harnessOpts{
		r:   10,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewMarkov(0.05, 2, 25, rng)
		},
		seed: 7,
	})
	msg := testMessage(8000, 8)
	h.run(t, msg)
	h.checkDelivered(t, msg)
}

func TestNPParityExhaustionFallback(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxParity = 1 // force the regrouping fallback under heavy loss
	h := newHarness(t, harnessOpts{
		r:   4,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.25, rng)
		},
		seed: 9,
	})
	msg := testMessage(4000, 10)
	h.run(t, msg)
	h.checkDelivered(t, msg)
}

func TestNPLossyControlPlane(t *testing.T) {
	// Even when POLL/NAK/FIN packets are lossy, retries must complete the
	// transfer.
	cfg := baseConfig()
	h := newHarness(t, harnessOpts{
		r:   6,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.15, rng)
		},
		loseControl: true,
		seed:        11,
	})
	msg := testMessage(6000, 12)
	h.run(t, msg)
	h.checkDelivered(t, msg)
}

func TestNPProactiveParities(t *testing.T) {
	run := func(a int) (SenderStats, int) {
		cfg := baseConfig()
		cfg.Proactive = a
		h := newHarness(t, harnessOpts{
			r:   15,
			cfg: cfg,
			mkLoss: func(rng *rand.Rand) loss.Process {
				return loss.NewBernoulli(0.03, rng)
			},
			seed: 13,
		})
		msg := testMessage(12000, 14)
		h.run(t, msg)
		h.checkDelivered(t, msg)
		naks := 0
		for _, rc := range h.receivers {
			naks += rc.Stats().NakTx
		}
		return h.sender.Stats(), naks
	}
	_, naks0 := run(0)
	_, naks2 := run(2)
	if naks2 >= naks0 {
		t.Errorf("proactive parities should cut NAK traffic: a=0 %d NAKs, a=2 %d NAKs", naks0, naks2)
	}
}

func TestNPNakSuppression(t *testing.T) {
	// With many receivers sharing loss characteristics, slotting/damping
	// must keep NAK traffic far below one NAK per receiver per round.
	cfg := baseConfig()
	h := newHarness(t, harnessOpts{
		r:   40,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.05, rng)
		},
		seed: 15,
	})
	msg := testMessage(8000, 16)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	totalNaks := 0
	suppressed := 0
	for _, rc := range h.receivers {
		totalNaks += rc.Stats().NakTx
		suppressed += rc.Stats().NakSupp
	}
	rounds := h.sender.Stats().PollTx
	if totalNaks > 3*rounds {
		t.Errorf("suppression weak: %d NAKs for %d poll rounds", totalNaks, rounds)
	}
	if suppressed == 0 {
		t.Error("no NAK was ever suppressed across 40 receivers")
	}
}

func TestN2LosslessAndLossy(t *testing.T) {
	for _, p := range []float64{0, 0.1} {
		cfg := baseConfig()
		var mk func(rng *rand.Rand) loss.Process
		if p > 0 {
			mk = func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(p, rng) }
		}
		h := newHarness(t, harnessOpts{r: 8, cfg: cfg, mkLoss: mk, seed: 17, n2: true})
		msg := testMessage(7000, 18)
		h.run(t, msg)
		h.checkDelivered(t, msg)
		if p == 0 {
			if st := h.sender.Stats(); st.DataTx != h.sender.SourcePackets() {
				t.Errorf("lossless N2 sent %d packets for %d", st.DataTx, h.sender.SourcePackets())
			}
		}
	}
}

func TestNPBeatsN2OnBandwidth(t *testing.T) {
	// The paper's core claim: with many receivers and independent loss,
	// parity retransmission needs far fewer repair transmissions than
	// retransmitting originals, because one parity repairs different
	// losses at different receivers.
	const R, p = 30, 0.05
	msg := testMessage(20000, 20)

	cfgNP := baseConfig()
	hNP := newHarness(t, harnessOpts{
		r: R, cfg: cfgNP, seed: 21,
		mkLoss: func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(p, rng) },
	})
	hNP.run(t, msg)
	hNP.checkDelivered(t, msg)
	np := hNP.sender.Stats()
	npTotal := np.DataTx + np.ParityTx

	cfgN2 := baseConfig()
	hN2 := newHarness(t, harnessOpts{
		r: R, cfg: cfgN2, seed: 21, n2: true,
		mkLoss: func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(p, rng) },
	})
	hN2.run(t, msg)
	hN2.checkDelivered(t, msg)
	n2 := hN2.sender.Stats()

	// Same payload, same shard size: compare total data-plane packets.
	if npTotal >= n2.DataTx {
		t.Errorf("NP total %d should beat N2 total %d", npTotal, n2.DataTx)
	}
}

func TestSessionIsolation(t *testing.T) {
	// Two sessions share the medium; receivers must ignore the foreign one.
	sched := simnet.NewScheduler()
	sched.MaxEvents = 5_000_000
	rng := rand.New(rand.NewSource(23))
	net := simnet.NewNetwork(sched, rng)

	cfgA := baseConfig()
	cfgA.Session = 1
	cfgB := baseConfig()
	cfgB.Session = 2

	nodeA := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	nodeB := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	sA, err := NewSender(nodeA, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	sB, err := NewSender(nodeB, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	nodeA.SetHandler(sA.HandlePacket)
	nodeB.SetHandler(sB.HandlePacket)

	var gotA, gotB []byte
	nodeRA := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	rA, err := NewReceiver(nodeRA, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	rA.OnComplete = func(m []byte) { gotA = m }
	nodeRA.SetHandler(rA.HandlePacket)

	nodeRB := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	rB, err := NewReceiver(nodeRB, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	rB.OnComplete = func(m []byte) { gotB = m }
	nodeRB.SetHandler(rB.HandlePacket)

	msgA := testMessage(2000, 24)
	msgB := testMessage(3000, 25)
	if err := sA.Send(msgA); err != nil {
		t.Fatal(err)
	}
	if err := sB.Send(msgB); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if !bytes.Equal(gotA, msgA) || !bytes.Equal(gotB, msgB) {
		t.Fatal("cross-session corruption")
	}
}

// TestTinyAndEmptyMessages covers the cut's edge cases under every
// redundancy policy, which all share one path: the empty message (still
// one announced, all-padding group), partial shards, and lengths one short
// of, at and one past a shard and a group boundary (k = 8 or the ladder's
// initial 32, 64-byte shards).
func TestTinyAndEmptyMessages(t *testing.T) {
	ewma := baseConfig()
	ewma.Adaptive = true
	for name, cfg := range map[string]Config{"constant": baseConfig(), "ewma": ewma, "ladder": adaptiveConfig()} {
		for _, size := range []int{0, 1, 63, 64, 65, 511, 512, 513, 2048, 2049} {
			h := newHarness(t, harnessOpts{r: 3, cfg: cfg, seed: int64(30 + size)})
			msg := testMessage(size, int64(40+size))
			h.run(t, msg)
			h.checkDelivered(t, msg)
			perTG := h.sender.cfg.K * cfg.ShardSize
			if got, want := h.sender.Groups(), max(1, (size+perTG-1)/perTG); got != want {
				t.Errorf("%s, %d bytes: cut into %d groups, want %d", name, size, got, want)
			}
		}
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	run := func() (SenderStats, [][]byte) {
		h := newHarness(t, harnessOpts{
			r: 10, cfg: baseConfig(), seed: 50,
			mkLoss: func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(0.1, rng) },
		})
		msg := testMessage(5000, 51)
		h.run(t, msg)
		h.checkDelivered(t, msg)
		return h.sender.Stats(), h.delivered
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Errorf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
	for i := range d1 {
		if !bytes.Equal(d1[i], d2[i]) {
			t.Fatal("deliveries differ across identical runs")
		}
	}
}

func TestSendTwiceRejected(t *testing.T) {
	h := newHarness(t, harnessOpts{r: 1, cfg: baseConfig(), seed: 60})
	if err := h.sender.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.sender.Send([]byte("y")); err != ErrBusy {
		t.Errorf("second Send: %v, want ErrBusy", err)
	}
	h.sender.Close()
	if err := h.sender.Send([]byte("z")); err != ErrClosed {
		t.Errorf("Send after Close: %v, want ErrClosed", err)
	}
}

func TestConfigValidation(t *testing.T) {
	env := simnet.NewNetwork(simnet.NewScheduler(), rand.New(rand.NewSource(1))).
		AddNode(simnet.NodeConfig{})
	bad := []Config{
		{K: 0, ShardSize: 10},
		{K: 4097, ShardSize: 10},                  // beyond even GF(2^16) support
		{K: 300, ShardSize: 11},                   // large group needs even shards
		{K: 300, MaxParity: 65300, ShardSize: 10}, // block exceeds GF(2^16)
		{K: 8, ShardSize: 0},
		{K: 8, ShardSize: 70000},
		{K: 8, MaxParity: 2, Proactive: 3, ShardSize: 10},
		{K: 8, ShardSize: 10, FinCount: -1},
	}
	for i, cfg := range bad {
		if _, err := NewSender(env, cfg); err == nil {
			t.Errorf("config %d accepted by NewSender: %+v", i, cfg)
		}
		if _, err := NewReceiver(env, cfg); err == nil {
			t.Errorf("config %d accepted by NewReceiver: %+v", i, cfg)
		}
	}
}

func TestOnGroupStreaming(t *testing.T) {
	h := newHarness(t, harnessOpts{r: 1, cfg: baseConfig(), seed: 70})
	var groups []uint32
	h.receivers[0].OnGroup = func(g uint32, shards [][]byte) {
		groups = append(groups, g)
		if len(shards) != 8 {
			t.Errorf("OnGroup got %d shards", len(shards))
		}
	}
	msg := testMessage(2000, 71)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	if len(groups) != h.sender.Groups() {
		t.Errorf("OnGroup fired %d times for %d groups", len(groups), h.sender.Groups())
	}
}
