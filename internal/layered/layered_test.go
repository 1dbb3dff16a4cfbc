package layered

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/loss"
	"rmfec/internal/model"
	"rmfec/internal/packet"
	"rmfec/internal/simnet"
)

// stack is an N2 endpoint running over a layered-FEC shim on a simnet node.
type stack struct {
	shim *Shim
	sNP  *core.Sender
	rNP  *core.Receiver
}

func fecConfig() Config {
	return Config{Session: 900, K: 7, H: 1, ShardSize: 200}
}

func rmConfig() core.Config {
	return core.Config{Session: 7, K: 1, ShardSize: 64}
}

func buildNet(t testing.TB, r int, seed int64, mkLoss func(*rand.Rand) loss.Process,
	fec Config) (sched *simnet.Scheduler, snd *stack, rcvs []*stack, delivered [][]byte) {
	t.Helper()
	sched = simnet.NewScheduler()
	sched.MaxEvents = 10_000_000
	rng := rand.New(rand.NewSource(seed))
	net := simnet.NewNetwork(sched, rng)

	mkStack := func(node *simnet.Node) *stack {
		sh, err := New(node, fec)
		if err != nil {
			t.Fatal(err)
		}
		node.SetHandler(sh.HandlePacket)
		return &stack{shim: sh}
	}

	sndNode := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	snd = mkStack(sndNode)
	s, err := core.NewSenderN2(snd.shim, rmConfig())
	if err != nil {
		t.Fatal(err)
	}
	snd.sNP = s
	snd.shim.SetUpper(s.HandlePacket)

	delivered = make([][]byte, r)
	for i := 0; i < r; i++ {
		var lp loss.Process
		if mkLoss != nil {
			lp = mkLoss(rng)
		}
		node := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond, Loss: lp})
		st := mkStack(node)
		rc, err := core.NewReceiverN2(st.shim, rmConfig())
		if err != nil {
			t.Fatal(err)
		}
		idx := i
		rc.OnComplete = func(m []byte) { delivered[idx] = m }
		st.rNP = rc
		st.shim.SetUpper(rc.HandlePacket)
		rcvs = append(rcvs, st)
	}
	return sched, snd, rcvs, delivered
}

// plainN2 runs N2 without the FEC layer: a sender and r receivers on nodes
// configured as nc, each receiver behind Bernoulli loss p. It checks every
// delivery and returns the sender.
func plainN2(t testing.TB, r int, seed int64, p float64, nc simnet.NodeConfig, msg []byte) *core.Sender {
	t.Helper()
	sched := simnet.NewScheduler()
	sched.MaxEvents = 10_000_000
	rng := rand.New(rand.NewSource(seed))
	net := simnet.NewNetwork(sched, rng)
	sndNode := net.AddNode(nc)
	s, err := core.NewSenderN2(sndNode, rmConfig())
	if err != nil {
		t.Fatal(err)
	}
	sndNode.SetHandler(s.HandlePacket)
	got := make([][]byte, r)
	for i := 0; i < r; i++ {
		rnc := nc
		rnc.Loss = loss.NewBernoulli(p, rng)
		node := net.AddNode(rnc)
		rc, err := core.NewReceiverN2(node, rmConfig())
		if err != nil {
			t.Fatal(err)
		}
		idx := i
		rc.OnComplete = func(m []byte) { got[idx] = m }
		node.SetHandler(rc.HandlePacket)
	}
	if err := s.Send(msg); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	for i, d := range got {
		if !bytes.Equal(d, msg) {
			t.Fatalf("plain receiver %d corrupted", i)
		}
	}
	return s
}

func testMessage(n int, seed int64) []byte {
	msg := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(msg)
	return msg
}

func TestLosslessPassThrough(t *testing.T) {
	sched, snd, rcvs, delivered := buildNet(t, 3, 1, nil, fecConfig())
	msg := testMessage(2000, 2)
	if err := snd.sNP.Send(msg); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	for i, d := range delivered {
		if !bytes.Equal(d, msg) {
			t.Fatalf("receiver %d corrupted", i)
		}
	}
	if st := snd.shim.Stats(); st.ParityTx == 0 {
		t.Error("no parities emitted")
	}
	for _, rc := range rcvs {
		if rc.shim.Stats().RecoveredRx != 0 {
			t.Error("recovered packets without loss")
		}
	}
}

func TestFECRecoveryAvoidsARQ(t *testing.T) {
	// Engineered loss: drop the LAST data slot (index k-1) of every block
	// of n = k+h = 8. The parity that follows immediately repairs it
	// before the ARQ layer can even detect the gap, so the N2 layer above
	// must never NAK.
	fec := fecConfig()
	n := fec.K + fec.H
	mk := func(*rand.Rand) loss.Process { return &periodicLoss{period: n, phase: fec.K - 1} }
	sched, snd, rcvs, delivered := buildNet(t, 2, 3, mk, fec)
	msg := testMessage(4000, 4)
	if err := snd.sNP.Send(msg); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	for i, d := range delivered {
		if !bytes.Equal(d, msg) {
			t.Fatalf("receiver %d corrupted", i)
		}
	}
	if naks := snd.sNP.Stats().NakRx; naks != 0 {
		t.Errorf("ARQ layer saw %d NAKs; FEC should have hidden the loss", naks)
	}
	for i, rc := range rcvs {
		if rec := rc.shim.Stats().RecoveredRx; rec == 0 {
			t.Errorf("receiver %d recovered nothing", i)
		}
	}
}

// periodicLoss drops arriving data packets whose index is congruent to
// phase modulo period.
type periodicLoss struct {
	period int
	phase  int
	count  int
}

func (p *periodicLoss) Lost(float64) bool {
	lost := p.count%p.period == p.phase
	p.count++
	return lost
}
func (p *periodicLoss) Reset() { p.count = 0 }

func TestRandomLossCompletes(t *testing.T) {
	mk := func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(0.08, rng) }
	sched, snd, _, delivered := buildNet(t, 6, 5, mk, fecConfig())
	msg := testMessage(6000, 6)
	if err := snd.sNP.Send(msg); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	for i, d := range delivered {
		if !bytes.Equal(d, msg) {
			t.Fatalf("receiver %d corrupted", i)
		}
	}
}

func TestLayeredReducesARQRetransmissions(t *testing.T) {
	// The paper's Section 3.1 claim, measured on the live stack: with
	// enough receivers, N2-over-FEC needs fewer ARQ retransmissions than
	// plain N2 under the same loss.
	const R, p = 12, 0.05
	msg := testMessage(10000, 7)

	mk := func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(p, rng) }
	sched, snd, _, delivered := buildNet(t, R, 8, mk, fecConfig())
	if err := snd.sNP.Send(msg); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	for i, d := range delivered {
		if !bytes.Equal(d, msg) {
			t.Fatalf("layered receiver %d corrupted", i)
		}
	}
	layeredRetx := snd.sNP.Stats().NakServed

	// Plain N2 on a raw network, same seed and loss.
	plainRetx := plainN2(t, R, 8, p, simnet.NodeConfig{Delay: time.Millisecond}, msg).Stats().NakServed
	if layeredRetx >= plainRetx {
		t.Errorf("layered FEC should cut ARQ retransmissions: layered %d vs plain %d",
			layeredRetx, plainRetx)
	}
}

func TestPartialGroupFlush(t *testing.T) {
	// A message whose packet count is not a multiple of k leaves a partial
	// tail group; the flush timer must emit its parities, padded with
	// virtual zero shards, and the padding must still allow recovery.
	fec := fecConfig()
	mk := func(*rand.Rand) loss.Process { return &lastDataLoss{} }
	sched, snd, rcvs, delivered := buildNet(t, 1, 9, mk, fec)
	// 3 RM packets (64B shards) -> partial FEC group of 3+FIN wrappings.
	msg := testMessage(3*64, 10)
	if err := snd.sNP.Send(msg); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if !bytes.Equal(delivered[0], msg) {
		t.Fatal("partial-group transfer corrupted")
	}
	if snd.shim.Stats().Flushes == 0 {
		t.Error("no flush happened")
	}
	_ = rcvs
}

// lastDataLoss drops the 2nd arriving data-plane packet only.
type lastDataLoss struct{ count int }

func (p *lastDataLoss) Lost(float64) bool {
	p.count++
	return p.count == 2
}
func (p *lastDataLoss) Reset() { p.count = 0 }

func TestControlBypassesFEC(t *testing.T) {
	sched := simnet.NewScheduler()
	rng := rand.New(rand.NewSource(11))
	net := simnet.NewNetwork(sched, rng)
	a := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	b := net.AddNode(simnet.NodeConfig{Delay: time.Millisecond})
	shA, err := New(a, fecConfig())
	if err != nil {
		t.Fatal(err)
	}
	a.SetHandler(shA.HandlePacket)
	shB, err := New(b, fecConfig())
	if err != nil {
		t.Fatal(err)
	}
	b.SetHandler(shB.HandlePacket)

	var got [][]byte
	shB.SetUpper(func(p []byte) { got = append(got, append([]byte(nil), p...)) })

	ctl := packet.Packet{Type: packet.TypeNak, Session: 7, Group: 3, Count: 2}
	if err := shA.MulticastControl(ctl.MustEncode()); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(got) != 1 {
		t.Fatalf("control deliveries = %d", len(got))
	}
	if p, err := packet.Decode(got[0]); err != nil || p.Type != packet.TypeNak {
		t.Fatalf("control packet mangled: %v", err)
	}
	if shA.Stats().WrappedTx != 0 {
		t.Error("control packet was wrapped")
	}
}

func TestOversizePacketRejected(t *testing.T) {
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched, rand.New(rand.NewSource(12)))
	node := net.AddNode(simnet.NodeConfig{})
	sh, err := New(node, fecConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Multicast(make([]byte, 500)); err == nil {
		t.Error("oversize packet accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched, rand.New(rand.NewSource(13)))
	node := net.AddNode(simnet.NodeConfig{})
	for i, cfg := range []Config{
		{K: 0, H: 1, ShardSize: 100},
		{K: 200, H: 60, ShardSize: 100},
		{K: 7, H: -1, ShardSize: 100},
		{K: 7, H: 1, ShardSize: 0},
		{K: 7, H: 1, ShardSize: 100, MaxGroups: -1},
	} {
		if _, err := New(node, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestGroupEviction(t *testing.T) {
	sched := simnet.NewScheduler()
	net := simnet.NewNetwork(sched, rand.New(rand.NewSource(14)))
	node := net.AddNode(simnet.NodeConfig{})
	cfg := fecConfig()
	cfg.MaxGroups = 2
	sh, err := New(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Feed partial groups 0..4; only the last two should be tracked.
	for g := 0; g < 5; g++ {
		shard := make([]byte, cfg.ShardSize+2)
		wp := packet.Packet{
			Type: packet.TypeData, Session: cfg.Session,
			Group: uint32(g), Seq: 0, K: uint16(cfg.K), Count: uint16(cfg.K), Payload: shard,
		}
		sh.HandlePacket(wp.MustEncode())
	}
	if len(sh.groups) != 2 {
		t.Errorf("tracked groups = %d, want 2", len(sh.groups))
	}
	if sh.Stats().Undecodable != 3 {
		t.Errorf("undecodable = %d, want 3", sh.Stats().Undecodable)
	}
	// An ancient group must not be resurrected.
	old := packet.Packet{
		Type: packet.TypeData, Session: cfg.Session,
		Group: 0, Seq: 1, K: uint16(cfg.K), Count: uint16(cfg.K),
		Payload: make([]byte, cfg.ShardSize+2),
	}
	sh.HandlePacket(old.MustEncode())
	if len(sh.groups) != 2 {
		t.Error("evicted group resurrected")
	}
}

// TestArchitecturesMeetClosedForms pins both ARQ architectures to their
// closed forms: plain N2 against Eq 1 (200 packets on 2 ms ± 1 ms nodes)
// and N2 over the FEC layer (k = 7, h = 1, 210 packets) against Eq 3, for
// R in {1, 8, 32} at Bernoulli 1 % and 5 % with loss-free control. The
// live E[M] — data-plane transmissions per source packet, parities
// included — averaged over 20 seeds must lie within 3 SE of the model.
// A NAK that raced an earlier one for the same packet bought a second
// retransmission and put N2 6.4 SE above Eq 1 at R = 32, p = 5 %; a gap NAK
// that could fire before the FEC group's parity arrived asked for packets
// the layer below rebuilt, 3.8 and 5.7 SE above Eq 3 at R = 8 and 32, 1 %.
func TestArchitecturesMeetClosedForms(t *testing.T) {
	const seeds, shard = 20, 64
	fec := fecConfig()
	jittered := simnet.NodeConfig{Delay: 2 * time.Millisecond, Jitter: time.Millisecond}
	for _, r := range []int{1, 8, 32} {
		for _, p := range []float64{0.01, 0.05} {
			for _, arch := range []struct {
				name string
				want float64
				run  func(seed int64) float64 // one transfer's E[M]
			}{
				{"n2", model.ExpectedTxNoFEC(r, p), func(seed int64) float64 {
					s := plainN2(t, r, seed, p, jittered, testMessage(200*shard, seed))
					return float64(s.Stats().DataTx) / float64(s.SourcePackets())
				}},
				{"layered", model.ExpectedTxLayered(fec.K, fec.H, r, p), func(seed int64) float64 {
					mk := func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(p, rng) }
					sched, snd, _, delivered := buildNet(t, r, seed, mk, fec)
					msg := testMessage(210*shard, seed)
					if err := snd.sNP.Send(msg); err != nil {
						t.Fatal(err)
					}
					sched.Run()
					for i, d := range delivered {
						if !bytes.Equal(d, msg) {
							t.Fatalf("seed %d: receiver %d corrupted", seed, i)
						}
					}
					st := snd.shim.Stats()
					return float64(st.WrappedTx+st.ParityTx) / float64(snd.sNP.SourcePackets())
				}},
			} {
				t.Run(fmt.Sprintf("%s/R=%d/p=%g", arch.name, r, p), func(t *testing.T) {
					var sum, sumSq float64
					for i := int64(0); i < seeds; i++ {
						em := arch.run(1000 + i)
						sum += em
						sumSq += em * em
					}
					mean := sum / seeds
					se := math.Sqrt((sumSq-sum*sum/seeds)/(seeds-1)) / math.Sqrt(seeds)
					t.Logf("E[M] = %.4f (SE %.4f) vs closed form %.4f: %+.1f SE", mean, se, arch.want, (mean-arch.want)/se)
					if math.Abs(mean-arch.want) > 3*se {
						t.Errorf("E[M] %.4f is %+.1f SE from the closed form %.4f, want within 3",
							mean, (mean-arch.want)/se, arch.want)
					}
				})
			}
		}
	}
}
