package field

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"rmfec/internal/adapt"
	"rmfec/internal/core"
	"rmfec/internal/loss"
	"rmfec/internal/packet"
	"rmfec/internal/simnet"
)

// TestLabelJitterPinned fences the aggregate NAK schedule's jitter stream:
// the FNV-1a hash of labelJitter over a (seed, Ts, session, group, round)
// grid. Field seeds include 0, negative values and math.MinInt64; the slot
// widths include the 10 ms default and a power of two, which rand.Int63n
// answers by masking instead of by rejection. Any change to the label,
// the seed chain or the draw moves it.
func TestLabelJitterPinned(t *testing.T) {
	f := popField(t, loss.NewBernoulliPopulation(10, 0.01, rand.New(rand.NewSource(1))), 20, 4, false)
	h := fnv.New64a()
	var word [8]byte
	for _, seed := range []int64{0, 1, -7, 20260926, math.MinInt64, math.MaxInt64} {
		for _, ts := range []time.Duration{10 * time.Millisecond, 1 << 20, 3} {
			for _, session := range []uint32{0, 1, 0xdeadbeef} {
				f.seed, f.cfg.Ts, f.cfg.Session = seed, ts, session
				for group := uint32(0); group < 40; group++ {
					for round := 0; round < 12; round++ {
						binary.LittleEndian.PutUint64(word[:], uint64(f.labelJitter(group, round)))
						h.Write(word[:])
					}
				}
			}
		}
	}
	const want = 0x1d2ee3246ab01f05
	if got := h.Sum64(); got != want {
		t.Errorf("labelJitter over the grid hashes to %#x, want %#x: the NAK jitter stream moved", got, uint64(want))
	}
}

// TestLmaxRecordMatchesScan drives whole transfers — RS groups kept as
// counts, per-packet pairs, RS and rect codecs, NC repair — and after
// every arrival holds each live group's recorded worst deficit, the first
// index attaining it and its deficient count to a fresh scan of its bins
// or arrays: every path that moves a bin or changes a missed bitmap keeps
// the record current. The round case must stay on the bins throughout.
func TestLmaxRecordMatchesScan(t *testing.T) {
	rung := func(p adapt.Params) core.Config {
		ac := adapt.DefaultConfig()
		ac.Ladder = []adapt.Rung{{PMax: 1, P: p}}
		return core.Config{Session: 9, ShardSize: 32, AdaptiveFEC: true, Adapt: ac, CodecGate: core.GateForce}
	}
	nc := rung(adapt.Params{K: 8, H: 2, A: 0})
	nc.NCRepair = true
	for _, c := range []struct {
		name string
		cfg  core.Config
		pop  loss.Population
	}{
		{"round", core.Config{Session: 9, K: 20, MaxParity: 24, Proactive: 2, ShardSize: 32}, loss.NewBernoulliPopulation(50_000, 0.02, rand.New(rand.NewSource(1)))},
		{"pairs", core.Config{Session: 9, K: 20, MaxParity: 24, Proactive: 2, ShardSize: 32}, loss.NewMarkovPopulation(5_000, 0.03, 2, 100, rand.New(rand.NewSource(2)))},
		{"rect", rung(adapt.Params{K: 12, H: 3, A: 1, Codec: packet.CodecRect, CodecArg: 3}), loss.NewBernoulliPopulation(400, 0.03, rand.New(rand.NewSource(3)))},
		{"nc", nc, loss.NewBernoulliPopulation(60, 0.15, rand.New(rand.NewSource(4)))},
	} {
		t.Run(c.name, func(t *testing.T) {
			sched := simnet.NewScheduler()
			sched.MaxEvents = 10_000_000
			net := simnet.NewNetwork(sched, rand.New(rand.NewSource(5)))
			senderNode := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
			sender, err := core.NewSender(senderNode, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			senderNode.SetHandler(sender.HandlePacket)
			fieldNode := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
			f, err := New(fieldNode, Config{Protocol: c.cfg, Population: c.pop, Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			checked, hist := 0, 0
			fieldNode.SetHandler(func(b []byte) {
				f.HandlePacket(b)
				for idx, g := range f.groups {
					if !g.consolidated || g.done {
						continue
					}
					l, at := g.lmax, g.lmaxAt
					n := len(g.ids)
					if g.hist {
						hist++
						n, g.lmax, g.lmaxAt = scanBins(f, g)
					} else {
						f.rescanLmax(g)
					}
					if g.lmax != l || g.lmaxAt != at {
						t.Fatalf("group %d: recorded l_max %d at %d, a scan finds %d at %d", idx, l, at, g.lmax, g.lmaxAt)
					}
					if g.nDef != n {
						t.Fatalf("group %d: recorded %d deficient receivers, a scan finds %d", idx, g.nDef, n)
					}
					checked++
				}
			})
			msg := make([]byte, 30*32*20)
			if err := sender.Send(msg); err != nil {
				t.Fatal(err)
			}
			sched.Run()
			if !f.Complete() || checked == 0 || (c.name == "round") != (hist == checked) {
				t.Fatalf("complete %t after %d checks, %d on bins", f.Complete(), checked, hist)
			}
		})
	}
}

// scanBins counts a group's bins afresh: its deficient receivers, their
// worst deficit and, there being no index under counts, -1.
func scanBins(f *Field, g *fgroup) (n, lmax, at int) {
	k := f.rx.GroupK(&g.RxParams)
	for c, m := range g.bins {
		if m > 0 && c >= k {
			panic(fmt.Sprintf("group %d: %d receivers in bin %d >= k = %d", g.idx, m, c, k))
		}
		if m > 0 && lmax == 0 {
			lmax = k - c
		}
		n += m
	}
	return n, lmax, -1
}

// nopCancel is the cancel func recordingEnv hands out, shared so that
// arming a timer allocates nothing.
var nopCancel = func() {}

// TestAggregateRoundZeroAlloc pins that a steady-state aggregate round at
// the field_1e6 working point — consolidate (the whole-round draw into
// arrays a finished group left behind), arm the representative NAK timer,
// fire it, fire its backoff retry — allocates nothing on an Env that
// allocates nothing itself.
func TestAggregateRoundZeroAlloc(t *testing.T) {
	env := &recordingEnv{}
	f, err := New(env, Config{
		Protocol:   core.Config{Session: 1, K: 20, MaxParity: 24, ShardSize: 16},
		Population: loss.NewBernoulliPopulation(1_000_000, 0.01, rand.New(rand.NewSource(7))),
		Seed:       8,
	})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	groups := make([]*fgroup, runs+2)
	for i := range groups {
		g := f.group(uint32(i))
		g.RxParams = core.RxParams{K: 20, H: 24}
		g.nTx, g.seqSeen = 22, 1<<22-1
		groups[i] = g
	}
	next := 0
	round := func() {
		g := groups[next]
		next++
		f.consolidate(g)
		if g.done {
			t.Fatal("no receiver deficient: the pin needs a NAK round")
		}
		f.armRep(g, 22)
		env.fire() // the slotted NAK
		env.fire() // its backoff retry
		f.groupDone(g)
	}
	round() // the first group grows the arrays every later one reuses
	if a := testing.AllocsPerRun(runs, round); a != 0 {
		t.Fatalf("steady-state aggregate round: %v allocs, want 0", a)
	}
	if f.stats.NakTx != 2*(runs+2) {
		t.Fatalf("%d NAKs sent over %d rounds, want two per round", f.stats.NakTx, runs+2)
	}
}

// recordingEnv is an Env that allocates nothing: it keeps the latest
// timer's callback for the test to fire and drops every send.
type recordingEnv struct{ fn func() }

func (e *recordingEnv) Now() time.Duration            { return 0 }
func (e *recordingEnv) Multicast([]byte) error        { return nil }
func (e *recordingEnv) MulticastControl([]byte) error { return nil }
func (e *recordingEnv) Rand() *rand.Rand              { return nil }
func (e *recordingEnv) After(_ time.Duration, fn func()) func() {
	e.fn = fn
	return nopCancel
}

func (e *recordingEnv) fire() {
	fn := e.fn
	e.fn = nil
	fn()
}

// TestLmaxFollowsLateParameters covers the one change to a deficit that no
// arrival's pass sees: a group the FIN consolidated before any of its
// frames (so at the ladder's largest k) learning its own, smaller k from
// a POLL. Its recorded l_max must drop with it, as a scan would find.
func TestLmaxFollowsLateParameters(t *testing.T) {
	ac := adapt.DefaultConfig()
	ac.Ladder = adapt.PortfolioLadder()
	cfg := core.Config{Session: 5, ShardSize: 16, AdaptiveFEC: true, Adapt: ac, CodecGate: core.GateForce}
	f, err := New(&recordingEnv{}, Config{
		Protocol:   cfg,
		Population: loss.NewBernoulliPopulation(3, 0, rand.New(rand.NewSource(1))),
	})
	if err != nil {
		t.Fatal(err)
	}
	maxK, _ := ac.MaxKH()
	const k = 8
	if maxK <= k {
		t.Fatalf("ladder's largest k is %d: the test needs one above %d", maxK, k)
	}
	f.HandlePacket((&packet.Packet{Type: packet.TypeFin, Session: 5, K: k, H: 2, Total: 2, Payload: make([]byte, 8)}).MustEncode())
	g := f.groups[0]
	if g == nil || !g.consolidated || g.lmax != maxK {
		t.Fatalf("after the FIN: group %+v, want consolidated at l_max %d", g, maxK)
	}
	f.HandlePacket((&packet.Packet{Type: packet.TypePoll, Session: 5, K: k, H: 2, Count: k}).MustEncode())
	if g.K != k || g.lmax != k || g.lmaxAt != 0 {
		t.Fatalf("after a POLL stating k = %d: K %d, l_max %d at %d, want %d at 0", k, g.K, g.lmax, g.lmaxAt, k)
	}
}
