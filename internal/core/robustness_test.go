package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"rmfec/internal/loss"
	"rmfec/internal/packet"
	"rmfec/internal/simnet"
)

// mkEngines builds a sender/receiver pair on a throwaway network for
// adversarial-input tests.
func mkEngines(t *testing.T, seed int64) (*Sender, *Receiver, *simnet.Scheduler) {
	t.Helper()
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched, rand.New(rand.NewSource(seed)))
	cfg := baseConfig()
	sn := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	s, err := NewSender(sn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rn := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	r, err := NewReceiver(rn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, r, sched
}

func TestEnginesSurviveGarbage(t *testing.T) {
	s, r, _ := mkEngines(t, 1)
	s2 := func() *Sender {
		sched := simnet.NewScheduler()
		net := simnet.NewNetwork(sched, rand.New(rand.NewSource(2)))
		n := net.AddNode(simnet.NodeConfig{})
		e, err := NewSenderN2(n, baseConfig())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}()
	r2 := func() *Receiver {
		sched := simnet.NewScheduler()
		net := simnet.NewNetwork(sched, rand.New(rand.NewSource(3)))
		n := net.AddNode(simnet.NodeConfig{})
		e, err := NewReceiverN2(n, baseConfig())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}()
	err := quick.Check(func(b []byte) bool {
		// None of the engines may panic on arbitrary bytes.
		s.HandlePacket(b)
		r.HandlePacket(b)
		s2.HandlePacket(b)
		r2.HandlePacket(b)
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}

// TestN2GapNaksBoundedByTotal: an N2 receiver NAKs the packets missing
// below the highest one it has seen, but only below the Total the session's
// headers announced. A forged frame for a packet near MaxGroups arms no
// timer, whether it follows an honest frame or announces nothing itself;
// unbounded, it armed one for each of the ~10^6 packets below it.
func TestN2GapNaksBoundedByTotal(t *testing.T) {
	cfg := baseConfig()
	cfg.Defaults()
	frame := func(seq, total uint32) []byte {
		p := packet.Packet{Type: packet.TypeData, Session: cfg.Session, Group: seq, K: 1,
			Total: total, Payload: make([]byte, cfg.ShardSize)}
		return p.MustEncode()
	}
	forged := uint32(cfg.MaxGroups - 1)
	for _, tc := range []struct {
		name   string
		frames [][]byte // the honest frame of packet 2 leaves gaps 0 and 1
	}{
		{"after-honest", [][]byte{frame(2, 4), frame(forged, 4)}},
		{"unannounced", [][]byte{frame(forged, 0), frame(2, 4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := simnet.NewScheduler()
			net := simnet.NewNetwork(sched, rand.New(rand.NewSource(5)))
			r, err := NewReceiverN2(net.AddNode(simnet.NodeConfig{}), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.frames {
				r.HandlePacket(f)
			}
			if n := sched.Pending(); n != 2 || len(r.groups) > 4 {
				t.Errorf("%d timers pending over %d groups, want 2 gap NAKs and at most 4 groups",
					n, len(r.groups))
			}
		})
	}
}

func TestEnginesSurviveAdversarialHeaders(t *testing.T) {
	s, r, _ := mkEngines(t, 4)
	cfg := baseConfig()
	adversarial := []packet.Packet{
		// Shard index far beyond the block.
		{Type: packet.TypeData, Session: cfg.Session, Group: 0, Seq: 65535,
			K: uint16(cfg.K), Payload: make([]byte, cfg.ShardSize)},
		// Wrong K claims.
		{Type: packet.TypeData, Session: cfg.Session, Group: 0, Seq: 0,
			K: 250, Payload: make([]byte, cfg.ShardSize)},
		// Payload size mismatch.
		{Type: packet.TypeData, Session: cfg.Session, Group: 0, Seq: 0,
			K: uint16(cfg.K), Payload: make([]byte, 3)},
		// NAK for a group that does not exist.
		{Type: packet.TypeNak, Session: cfg.Session, Group: 4_000_000_000, Count: 3},
		// NAK demanding zero or absurd repair counts.
		{Type: packet.TypeNak, Session: cfg.Session, Group: 0, Count: 0},
		{Type: packet.TypeNak, Session: cfg.Session, Group: 0, Count: 65535},
		// POLL with zero round size.
		{Type: packet.TypePoll, Session: cfg.Session, Group: 0, K: uint16(cfg.K), Count: 0},
		// FIN with truncated payload and absurd totals.
		{Type: packet.TypeFin, Session: cfg.Session, Total: 4_000_000_000, Payload: []byte{1}},
		// Foreign session: must be ignored entirely.
		{Type: packet.TypeData, Session: cfg.Session + 1, Group: 0, Seq: 0,
			K: uint16(cfg.K), Payload: make([]byte, cfg.ShardSize)},
	}
	for i, p := range adversarial {
		wire := p.MustEncode()
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("packet %d (%s) panicked: %v", i, p.String(), rec)
				}
			}()
			s.HandlePacket(wire)
			r.HandlePacket(wire)
		}()
	}
	if r.Stats().DataRx != 0 {
		t.Error("receiver accepted an adversarial shard")
	}
}

func TestTransferCompletesUnderGarbageInjection(t *testing.T) {
	// A hostile node floods the group with garbage and half-valid packets
	// during a real transfer; the transfer must still complete intact.
	h := newHarness(t, harnessOpts{
		r:   5,
		cfg: baseConfig(),
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.05, rng)
		},
		seed: 5,
	})
	attacker := h.net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	rng := rand.New(rand.NewSource(6))
	var flood func()
	n := 0
	flood = func() {
		if n >= 400 {
			return
		}
		n++
		junk := make([]byte, rng.Intn(80))
		rng.Read(junk)
		attacker.Multicast(junk) //nolint:errcheck
		// Half-valid: correct magic but hostile fields.
		p := packet.Packet{
			Type:    packet.Type(rng.Intn(6)%5 + 1),
			Session: 7, // the victims' session
			Group:   uint32(rng.Intn(10)),
			Seq:     uint16(rng.Intn(300)),
			K:       uint16(rng.Intn(300)),
			Count:   uint16(rng.Intn(300)),
			Payload: junk,
		}
		if wire, err := p.Encode(); err == nil {
			attacker.Multicast(wire) //nolint:errcheck
		}
		attacker.After(2*time.Millisecond, flood)
	}
	attacker.After(0, flood)

	msg := testMessage(6000, 7)
	h.run(t, msg)
	h.checkDelivered(t, msg)
}

// TestLossyControlPlaneStaysLive loses 20 % of every frame at each of six
// receivers — POLL, NAK and FIN included — on a static session (K 20,
// MaxParity 20) and on the portfolio ladder with NC repair, 60 seeds each.
// Every receiver must deliver the exact message and the run must go idle
// within 30 virtual seconds: a NAK the sender declines to serve is asked
// again by the receiver's backoff retry, so no lost frame can leave a group
// waiting forever. The retry carries noEcho for that reason; a retry that
// echoes its group's last POLL instead lets a receiver whose repairs were
// lost be told "covered" forever, and both rows livelock at their first
// seed.
func TestLossyControlPlaneStaysLive(t *testing.T) {
	static := baseConfig()
	static.K, static.MaxParity = 20, 20
	ladderNC := portfolioConfig(GateForce)
	ladderNC.NCRepair = true
	for _, row := range []struct {
		name string
		cfg  Config
	}{{"static", static}, {"ladder-nc", ladderNC}} {
		t.Run(row.name, func(t *testing.T) {
			var last time.Duration // latest sender frame over all seeds
			for i := int64(0); i < 60; i++ {
				seed := 2701 + i
				var lastTx time.Duration
				h := newHarness(t, harnessOpts{r: 6, cfg: row.cfg, seed: seed, loseControl: true,
					mkLoss: func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(0.2, rng) },
					senderEnv: func(n *simnet.Node) Env {
						return recordingEnv{n, func([]byte) { lastTx = n.Now() }}
					}})
				msg := testMessage(20000, seed+1000)
				if err := h.sender.Send(msg); err != nil {
					t.Fatal(err)
				}
				h.sched.RunUntil(30 * time.Second)
				if n := h.sched.Pending(); n != 0 {
					t.Fatalf("seed %d: not idle after 30 virtual seconds: %d events pending; sender %+v",
						seed, n, h.sender.Stats())
				}
				for j, got := range h.delivered {
					if !bytes.Equal(got, msg) {
						t.Fatalf("seed %d: receiver %d delivered %d of %d bytes (%+v)",
							seed, j, len(got), len(msg), h.receivers[j].Stats())
					}
				}
				last = max(last, lastTx)
			}
			t.Logf("latest sender frame over 60 seeds at %v", last)
		})
	}
}

// dropFrames loses the data-plane frames its receiver draws with indices
// in [from, to), counting from 0, and no others.
type dropFrames struct{ n, from, to int }

func (d *dropFrames) Lost(float64) bool {
	d.n++
	return d.n > d.from && d.n <= d.to
}

func (d *dropFrames) Reset() {}

// TestRepairPreemptsFinGap: one receiver loses part of the last group's
// first round, so its NAK reaches the sender while the sender waits out
// the FinInterval between two FINs. The first repair must still leave
// within Delta of that NAK, on every service path: parities (reactive),
// the exhaustion resend (carousel, whose FIN is its only poll), an NC
// combo round (ladder-nc) and N2's retransmission. A pump that sleeps
// through the FIN gap sends it up to FinInterval later.
func TestRepairPreemptsFinGap(t *testing.T) {
	reactive := staticMatrixConfig()
	carousel := staticMatrixConfig()
	carousel.Proactive, carousel.Carousel = 3, true
	ladderNC := portfolioConfig(GateForce)
	ladderNC.NCRepair = true
	for _, row := range []struct {
		name     string
		cfg      Config
		n2       bool
		msgLen   int         // whole groups: the last one's frames are the last drawn
		from, to int         // data-plane frames the lossy receiver loses
		repair   packet.Type // what the first repair frame is
	}{
		{"reactive", reactive, false, 4 * 8 * 64, 24, 26, packet.TypeParity},
		{"carousel", carousel, false, 4 * 8 * 64, 33, 37, packet.TypeData},
		{"ladder-nc", ladderNC, false, 3 * 32 * 64, 64, 69, packet.TypeNcRepair},
		{"n2", baseConfig(), true, 32 * 64, 30, 32, packet.TypeData},
	} {
		t.Run(row.name, func(t *testing.T) {
			type frameAt struct {
				at  time.Duration
				typ packet.Type
			}
			var (
				node  *simnet.Node
				tx    []frameAt
				nakAt time.Duration = -1
			)
			lossy := true
			h := newHarness(t, harnessOpts{r: 3, cfg: row.cfg, seed: 3301, n2: row.n2,
				mkLoss: func(*rand.Rand) loss.Process {
					if !lossy {
						return nil
					}
					lossy = false
					return &dropFrames{from: row.from, to: row.to}
				},
				senderEnv: func(n *simnet.Node) Env {
					node = n
					return recordingEnv{n, func(b []byte) {
						var p packet.Packet
						if err := packet.DecodeInto(&p, b); err != nil {
							t.Fatal(err)
						}
						tx = append(tx, frameAt{n.Now(), p.Type})
					}}
				}})
			cfg := row.cfg
			cfg.Defaults()
			delta := cfg.Delta
			node.SetHandler(func(b []byte) {
				var p packet.Packet
				// The first NAK to arrive more than Delta after a FIN,
				// with nothing sent since, lands in a FIN gap.
				if nakAt < 0 && packet.DecodeInto(&p, b) == nil && p.Type == packet.TypeNak &&
					len(tx) > 0 && tx[len(tx)-1].typ == packet.TypeFin && node.Now()-tx[len(tx)-1].at > delta {
					nakAt = node.Now()
				}
				h.sender.HandlePacket(b)
			})
			msg := testMessage(row.msgLen, 3302)
			h.run(t, msg)
			h.checkDelivered(t, msg)
			if nakAt < 0 {
				t.Fatal("no NAK reached the sender inside a FIN gap; the scenario no longer tests the gap")
			}
			i := slices.IndexFunc(tx, func(f frameAt) bool { return f.at >= nakAt })
			if i < 0 {
				t.Fatalf("nothing sent after the NAK at %v", nakAt)
			}
			if f := tx[i]; f.typ != row.repair || f.at-nakAt > delta {
				t.Errorf("NAK in the FIN gap at %v: next frame %v at %v (+%v), want %v within Delta %v",
					nakAt, f.typ, f.at, f.at-nakAt, row.repair, delta)
			}
			fins := 0
			for _, f := range tx {
				if f.typ == packet.TypeFin {
					fins++
				}
			}
			if fins != 1+cfg.FinCount {
				t.Errorf("sent %d FINs, want 1 + FinCount = %d", fins, 1+cfg.FinCount)
			}
		})
	}
}

// runWithStranger runs h's transfer of msg with one more receiver on the
// medium, a stranger configured with stranger (same Session) behind loss
// lp (nil = none), for up to ten virtual minutes. The sender must be idle
// by then and h's receivers must have delivered; it returns the stranger
// and what the stranger delivered.
func runWithStranger(t *testing.T, h *harness, stranger Config, lp loss.Process, msg []byte) (*Receiver, []byte) {
	t.Helper()
	node := h.net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond, Jitter: time.Millisecond, Loss: lp})
	rc, err := NewReceiver(node, stranger)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	rc.OnComplete = func(m []byte) { got = m }
	node.SetHandler(rc.HandlePacket)
	if err := h.sender.Send(msg); err != nil {
		t.Fatal(err)
	}
	h.sched.RunUntil(10 * time.Minute)
	if n := h.sched.Pending(); n != 0 {
		t.Fatalf("not idle after ten virtual minutes: %d events pending; sender %+v, stranger %+v",
			n, h.sender.Stats(), rc.Stats())
	}
	h.checkDelivered(t, msg)
	return rc, got
}

// TestForeignKReceiverStaysSilent: a receiver configured with K = 8 on a
// K = 16 static session of the same Session id refuses every frame, the
// FIN included — it states the sender's K and H — so it never NAKs and the
// sender goes idle. A receiver that took the FIN would NAK every group it
// cannot decode, and the repairs it cannot use, forever.
func TestForeignKReceiverStaysSilent(t *testing.T) {
	cfg := baseConfig()
	cfg.K = 16
	h := newHarness(t, harnessOpts{r: 2, cfg: cfg, seed: 1701})
	rc, got := runWithStranger(t, h, baseConfig(), nil, testMessage(20000, 1702))
	if st := rc.Stats(); got != nil || st.NakTx != 0 || st.DataRx != 0 || st.PollRx != 0 {
		t.Errorf("K = 8 receiver acted on a K = 16 session: delivered %d bytes, %+v", len(got), st)
	}
	if n := h.sender.Stats().NakRx; n != 0 {
		t.Errorf("sender heard %d NAKs on a loss-free medium", n)
	}
}

// TestStaticReceiverOnLadderRungDeliversNothing: a static receiver whose
// config is exactly the ladder's initial rung (K 32, MaxParity 4) admits
// the adaptive session's groups cut at that rung — they are its own working
// point, and repairs them through its own NAKs — but never the session's
// FIN, which states H = 0. It delivers nothing, and the run goes idle.
func TestStaticReceiverOnLadderRungDeliversNothing(t *testing.T) {
	cfg := adaptiveConfig()
	shift := func(rng *rand.Rand) loss.Process {
		return &shiftLoss{first: loss.NewBernoulli(0.005, rng), second: loss.NewBernoulli(0.2, rng), remaining: 600}
	}
	h := newHarness(t, harnessOpts{r: 2, cfg: cfg, seed: 1801, mkLoss: shift})
	rung := cfg.Adapt.Ladder[cfg.Adapt.Initial].P
	stranger := Config{Session: cfg.Session, K: rung.K, MaxParity: rung.H, ShardSize: cfg.ShardSize}
	rc, got := runWithStranger(t, h, stranger, loss.NewBernoulli(0.05, rand.New(rand.NewSource(1802))), testMessage(90017, 1803))
	if got != nil || rc.Complete() {
		t.Fatalf("static receiver delivered %d bytes from an adaptive session", len(got))
	}
	if st := rc.Stats(); st.Decodes == 0 || st.NakTx == 0 || h.sender.ctl.Retunes() == 0 {
		t.Errorf("vacuous: the stranger decoded %d groups after %d NAKs and the ladder retuned %d times; want all > 0",
			st.Decodes, st.NakTx, h.sender.ctl.Retunes())
	}
}
