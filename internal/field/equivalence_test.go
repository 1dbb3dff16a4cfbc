package field_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rmfec/internal/adapt"
	"rmfec/internal/core"
	"rmfec/internal/field"
	"rmfec/internal/loss"
	"rmfec/internal/packet"
	"rmfec/internal/simnet"
)

// The equivalence suite proves the tentpole's central claim: one Field in
// Exact mode is indistinguishable — on the wire — from R independent
// core.Receiver instances. Both topologies run the same seeds: the
// reference run gives every receiver node its own slice of one shared
// loss.Population draw (so the population's RNG stream matches the
// field's packet-for-packet), and the field reuses the reference nodes'
// jitter seeds. The sender's full transcript must match byte for byte,
// and the per-TG NAK counts arriving at the sender must be identical.

// sniffEnv records every frame the sender hands to the medium, in order.
type sniffEnv struct {
	*simnet.Node
	frames *[][]byte
}

func (e *sniffEnv) Multicast(b []byte) error {
	*e.frames = append(*e.frames, append([]byte(nil), b...))
	return e.Node.Multicast(b)
}

func (e *sniffEnv) MulticastControl(b []byte) error {
	*e.frames = append(*e.frames, append([]byte(nil), b...))
	return e.Node.MulticastControl(b)
}

// popSplit shares one Population draw between R per-node loss.Process
// views. The simnet delivers each multicast to the receiver nodes in node
// order, so the first view asked about a packet advances the population —
// with the same inter-arrival dt every node computes — and the rest read
// their slot of the same draw.
type popSplit struct {
	pop   loss.Population
	lost  []bool
	draws int
}

type splitProc struct {
	s     *popSplit
	i     int
	calls int
}

func (p *splitProc) Lost(dt float64) bool {
	if p.calls == p.s.draws {
		p.s.pop.Draw(dt, p.s.lost)
		p.s.draws++
	}
	p.calls++
	return p.s.lost[p.i]
}

func (p *splitProc) Reset() {}

// nakCounting wraps the sender's packet handler to tally per-TG NAK
// arrivals.
func nakCounting(naks map[uint32]int, inner func([]byte)) func([]byte) {
	return func(b []byte) {
		var pkt packet.Packet
		if packet.DecodeInto(&pkt, b) == nil && pkt.Type == packet.TypeNak {
			naks[pkt.Group]++
		}
		inner(b)
	}
}

type equivResult struct {
	transcript [][]byte
	naks       map[uint32]int
	nakTx      int
	nakSupp    int
}

const equivDelay = 2 * time.Millisecond

func testMessage(n int, seed int64) []byte {
	msg := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(msg)
	return msg
}

// runReference runs the per-instance topology: one sender, R receivers.
func runReference(t *testing.T, rcount int, pcfg core.Config, netSeed, lossSeed int64,
	mkPop func(r int, rng *rand.Rand) loss.Population, msg []byte) equivResult {
	t.Helper()
	sched := simnet.NewScheduler()
	sched.MaxEvents = 20_000_000
	net := simnet.NewNetwork(sched, rand.New(rand.NewSource(netSeed)))

	res := equivResult{naks: make(map[uint32]int)}
	senderNode := net.AddNode(simnet.NodeConfig{Delay: equivDelay})
	sender, err := core.NewSender(&sniffEnv{Node: senderNode, frames: &res.transcript}, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	senderNode.SetHandler(nakCounting(res.naks, sender.HandlePacket))

	split := &popSplit{
		pop:  mkPop(rcount, rand.New(rand.NewSource(lossSeed))),
		lost: make([]bool, rcount),
	}
	receivers := make([]*core.Receiver, rcount)
	for i := 0; i < rcount; i++ {
		node := net.AddNode(simnet.NodeConfig{Delay: equivDelay, Loss: &splitProc{s: split, i: i}})
		rc, err := core.NewReceiver(node, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		rc.OnComplete = func([]byte) {}
		receivers[i] = rc
		node.SetHandler(rc.HandlePacket)
	}

	if err := sender.Send(msg); err != nil {
		t.Fatal(err)
	}
	sched.Run()

	for i, rc := range receivers {
		if !rc.Complete() {
			t.Fatalf("reference receiver %d never completed", i)
		}
		st := rc.Stats()
		res.nakTx += st.NakTx
		res.nakSupp += st.NakSupp
	}
	return res
}

// runField runs the field topology: one sender, one Field in Exact mode
// fronting the same population with the reference nodes' jitter seeds.
func runField(t *testing.T, rcount int, pcfg core.Config, netSeed, lossSeed int64,
	mkPop func(r int, rng *rand.Rand) loss.Population, msg []byte) equivResult {
	t.Helper()
	// The reference run's node RNG seeds: AddNode draws one Int63 from the
	// network RNG per node, sender first, then receiver i = draw i+1.
	seedRng := rand.New(rand.NewSource(netSeed))
	nodeSeeds := make([]int64, rcount+1)
	for i := range nodeSeeds {
		nodeSeeds[i] = seedRng.Int63()
	}

	sched := simnet.NewScheduler()
	sched.MaxEvents = 20_000_000
	net := simnet.NewNetwork(sched, rand.New(rand.NewSource(netSeed)))

	res := equivResult{naks: make(map[uint32]int)}
	senderNode := net.AddNode(simnet.NodeConfig{Delay: equivDelay})
	sender, err := core.NewSender(&sniffEnv{Node: senderNode, frames: &res.transcript}, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	senderNode.SetHandler(nakCounting(res.naks, sender.HandlePacket))

	fieldNode := net.AddNode(simnet.NodeConfig{Delay: equivDelay})
	f, err := field.New(fieldNode, field.Config{
		Protocol:   pcfg,
		Population: mkPop(rcount, rand.New(rand.NewSource(lossSeed))),
		Exact:      true,
		JitterSeed: func(i int) int64 { return nodeSeeds[i+1] },
		InterDelay: equivDelay,
	})
	if err != nil {
		t.Fatal(err)
	}
	fieldNode.SetHandler(f.HandlePacket)

	if err := sender.Send(msg); err != nil {
		t.Fatal(err)
	}
	sched.Run()

	if !f.Complete() {
		t.Fatalf("field never completed: stats %+v", f.Stats())
	}
	st := f.Stats()
	res.nakTx = int(st.NakTx)
	res.nakSupp = int(st.NakSupp)
	return res
}

func checkEquivalent(t *testing.T, ref, got equivResult) {
	t.Helper()
	if len(ref.transcript) != len(got.transcript) {
		t.Fatalf("transcript length: reference %d frames, field %d", len(ref.transcript), len(got.transcript))
	}
	for i := range ref.transcript {
		if !bytes.Equal(ref.transcript[i], got.transcript[i]) {
			t.Fatalf("sender transcript diverges at frame %d:\nreference %x\nfield     %x",
				i, ref.transcript[i], got.transcript[i])
		}
	}
	if len(ref.naks) != len(got.naks) {
		t.Fatalf("per-TG NAK groups: reference %v, field %v", ref.naks, got.naks)
	}
	for g, n := range ref.naks {
		if got.naks[g] != n {
			t.Fatalf("NAK count for group %d: reference %d, field %d", g, n, got.naks[g])
		}
	}
	if ref.nakTx != got.nakTx || ref.nakSupp != got.nakSupp {
		t.Fatalf("NAK totals: reference tx=%d supp=%d, field tx=%d supp=%d",
			ref.nakTx, ref.nakSupp, got.nakTx, got.nakSupp)
	}
}

// log2exact returns log2(r) for exact powers of two, -1 otherwise.
func log2exact(r int) int {
	for d := 0; d <= 30; d++ {
		if 1<<d == r {
			return d
		}
	}
	return -1
}

func TestFieldEquivalence(t *testing.T) {
	pcfg := core.Config{Session: 7, K: 8, MaxParity: 16, Proactive: 1, ShardSize: 32}
	const groups = 6
	msg := testMessage(groups*8*32, 99)

	models := []struct {
		name  string
		mk    func(r int, rng *rand.Rand) loss.Population
		fits  func(r int) bool
		extra string
	}{
		{
			name: "bernoulli",
			mk: func(r int, rng *rand.Rand) loss.Population {
				return loss.NewBernoulliPopulation(r, 0.15, rng)
			},
			fits: func(int) bool { return true },
		},
		{
			name: "markov",
			mk: func(r int, rng *rand.Rand) loss.Population {
				return loss.NewMarkovPopulation(r, 0.10, 2.5, 1000, rng)
			},
			fits: func(int) bool { return true },
		},
		{
			// Full binary tree: spatially correlated, sparse kernel.
			name: "fbt",
			mk: func(r int, rng *rand.Rand) loss.Population {
				return loss.NewFBT(log2exact(r), 0.12, rng)
			},
			fits: func(r int) bool { return log2exact(r) >= 0 },
		},
		{
			// Star-shaped Tree: dense Draw only, exercising the field's
			// dense-fallback loss path.
			name: "tree",
			mk: func(r int, rng *rand.Rand) loss.Population {
				tr, err := loss.NewUniformTree(r, 1, 0.12, rng)
				if err != nil {
					panic(err)
				}
				return tr
			},
			fits: func(int) bool { return true },
		},
	}

	for _, m := range models {
		for _, r := range []int{1, 4, 40} {
			if !m.fits(r) {
				continue
			}
			m := m
			r := r
			t.Run(m.name+"/r="+itoa(r), func(t *testing.T) {
				ref := runReference(t, r, pcfg, 4242, 1717, m.mk, msg)
				got := runField(t, r, pcfg, 4242, 1717, m.mk, msg)
				checkEquivalent(t, ref, got)
				if ref.nakTx == 0 && m.name != "tree" {
					t.Fatalf("degenerate case: no NAKs were exchanged, equivalence untested")
				}
			})
		}
	}
}

// TestFieldEquivalenceCarousel covers the FIN-doubles-as-poll path: in
// carousel mode no per-group POLL is sent, so all consolidation and NAK
// arming happens at the FIN.
func TestFieldEquivalenceCarousel(t *testing.T) {
	pcfg := core.Config{Session: 9, K: 8, MaxParity: 16, Proactive: 2, ShardSize: 32, Carousel: true}
	msg := testMessage(5*8*32, 77)
	mk := func(r int, rng *rand.Rand) loss.Population {
		return loss.NewBernoulliPopulation(r, 0.2, rng)
	}
	for _, r := range []int{4, 40} {
		r := r
		t.Run("r="+itoa(r), func(t *testing.T) {
			ref := runReference(t, r, pcfg, 111, 222, mk, msg)
			got := runField(t, r, pcfg, 111, 222, mk, msg)
			checkEquivalent(t, ref, got)
		})
	}
}

// TestFieldEquivalenceAdaptive extends the pin to adaptive sessions:
// per-group (k, h) walked by the controller, the rect codec of the
// portfolio ladder and NC repair with its NAK loss maps.
func TestFieldEquivalenceAdaptive(t *testing.T) {
	ac := adapt.DefaultConfig()
	ac.Window, ac.MinDwell, ac.MinBurstObs, ac.ProbeEvery = 12, 4, 6, 4
	msg := testMessage(60_000, 55)
	ladders := []struct {
		name   string
		ladder []adapt.Rung
		gate   int
	}{
		{"default", adapt.DefaultLadder, 0},
		{"portfolio", adapt.PortfolioLadder(), core.GateForce},
	}
	for _, l := range ladders {
		for _, nc := range []bool{false, true} {
			for _, p := range []float64{0.02, 0.15} {
				for _, r := range []int{1, 4, 40} {
					l, nc, p, r := l, nc, p, r
					name := fmt.Sprintf("%s/nc=%t/p=%g/r=%d", l.name, nc, p, r)
					t.Run(name, func(t *testing.T) {
						cfg := ac
						cfg.Ladder = l.ladder
						pcfg := core.Config{
							Session: 13, ShardSize: 32, AdaptiveFEC: true, Adapt: cfg,
							CodecGate: l.gate, NCRepair: nc,
							Ts: 2 * time.Millisecond, MaxNakSlots: 4, ObserveLag: 6,
						}
						mk := func(r int, rng *rand.Rand) loss.Population {
							return loss.NewBernoulliPopulation(r, p, rng)
						}
						ref := runReference(t, r, pcfg, 3131, 4141, mk, msg)
						got := runField(t, r, pcfg, 3131, 4141, mk, msg)
						checkEquivalent(t, ref, got)
					})
				}
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
