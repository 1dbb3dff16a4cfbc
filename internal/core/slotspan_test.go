package core

import (
	"math/rand"
	"testing"
	"time"

	"rmfec/internal/loss"
	"rmfec/internal/packet"
	"rmfec/internal/simnet"
)

// spanEvent is one entry of the sender node's log, in the order the
// simulation ran them: a frame the sender multicast, or a NAK that reached
// it (nak set, count its deficit as the sender clamps it).
type spanEvent struct {
	at     time.Duration
	nak    bool
	typ    packet.Type
	group  uint32
	seq    uint16
	count  int
	forged bool // the NAK fed in by the test, not sent by a receiver
	// firstPoll marks a group's first POLL; heardAtCut is then the largest
	// deficit the sender had heard when it cut the group and built it.
	firstPoll  bool
	heardAtCut int
}

func spanConfig() Config {
	return Config{Session: 7, K: 20, MaxParity: 6, ShardSize: 64, Ts: 2 * time.Millisecond}
}

// runSpanTransfer sends 24 groups to 4 receivers at 2 % Bernoulli loss and
// logs the sender node. forgeAt > 0 feeds the sender a forged NAK with
// Count 0xFFFF for group 0 just before the forgeAt-th real NAK.
func runSpanTransfer(t *testing.T, forgeAt int) []spanEvent {
	t.Helper()
	cfg := spanConfig()
	var (
		node *simnet.Node
		log  []spanEvent
	)
	h := newHarness(t, harnessOpts{r: 4, cfg: cfg, seed: 3401,
		mkLoss: func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(0.02, rng) },
		senderEnv: func(n *simnet.Node) Env {
			node = n
			return recordingEnv{n, func(b []byte) {
				var p packet.Packet
				if err := packet.DecodeInto(&p, b); err != nil {
					t.Fatal(err)
				}
				log = append(log, spanEvent{at: n.Now(), typ: p.Type, group: p.Group, seq: p.Seq, count: int(p.Count)})
			}}
		}})
	k := cfg.K
	naks := 0
	node.SetHandler(func(b []byte) {
		var p packet.Packet
		if packet.DecodeInto(&p, b) != nil || p.Type != packet.TypeNak {
			return
		}
		if naks++; naks == forgeAt {
			forged := packet.Packet{Type: packet.TypeNak, Session: cfg.Session, Group: 0, Seq: noEcho, Count: 0xFFFF}
			log = append(log, spanEvent{at: node.Now(), nak: true, group: 0, count: k, forged: true})
			h.sender.HandlePacket(forged.MustEncode())
		}
		log = append(log, spanEvent{at: node.Now(), nak: true, group: p.Group, count: min(int(p.Count), k)})
		h.sender.HandlePacket(b)
	})
	msg := testMessage(24*k*cfg.ShardSize, 3402)
	h.run(t, msg)
	h.checkDelivered(t, msg)

	// A group's first POLL is built when the group is cut, which on the
	// serial path is the moment its data frame 0 leaves.
	heard := 0
	cutAt := map[uint32]int{}
	polled := map[uint32]bool{}
	for i := range log {
		e := &log[i]
		switch {
		case e.nak:
			heard = max(heard, e.count)
		case e.typ == packet.TypeData && e.seq == 0:
			if _, ok := cutAt[e.group]; !ok {
				cutAt[e.group] = heard
			}
		case e.typ == packet.TypePoll && !polled[e.group]:
			polled[e.group] = true
			e.firstPoll, e.heardAtCut = true, cutAt[e.group]
		}
	}
	return log
}

// TestPollStatesSlotSpan pins the slot span a POLL states: the round size
// until a NAK is heard, then the smaller of the round and one past the
// largest deficit any NAK has stated, so the worst NAK of a round no
// longer waits out slots nobody answers in. A forged NAK can only widen
// the span back to the round.
func TestPollStatesSlotSpan(t *testing.T) {
	cfg := spanConfig()
	cfg.Defaults()
	round := cfg.K + cfg.Proactive
	log := runSpanTransfer(t, 0)

	t.Run("before the first NAK", func(t *testing.T) {
		n := 0
		for _, e := range log {
			if e.nak {
				break
			}
			if e.typ == packet.TypePoll {
				n++
				if e.count != round {
					t.Errorf("group %d POLL before any NAK states %d, want the round %d", e.group, e.count, round)
				}
			}
		}
		if n == 0 {
			t.Fatal("no POLL left before the first NAK")
		}
	})

	t.Run("after NAKs", func(t *testing.T) {
		narrowed, heard := 0, 0
		for _, e := range log {
			switch {
			case e.nak:
				heard = max(heard, e.count)
			case e.typ != packet.TypePoll:
			case e.firstPoll && e.heardAtCut > 0:
				want := min(round, e.heardAtCut+1)
				if e.count != want {
					t.Errorf("group %d POLL after largest deficit %d states %d, want min(%d, %d+1) = %d",
						e.group, e.heardAtCut, e.count, round, e.heardAtCut, want)
				}
				if want < round {
					narrowed++
				}
			case !e.firstPoll && e.count > heard:
				t.Errorf("group %d service POLL states %d, past the largest deficit %d", e.group, e.count, heard)
			}
		}
		if narrowed == 0 {
			t.Fatal("no POLL followed a NAK smaller than the round; the scenario no longer tests the span")
		}
	})

	t.Run("hostile NAK widens back to the round", func(t *testing.T) {
		hostile := runSpanTransfer(t, 3)
		forged, later, after := false, 0, 0
		for _, e := range hostile {
			switch {
			case e.forged:
				forged = true
			case forged && e.nak:
				later++
			case e.firstPoll && e.heardAtCut >= cfg.K:
				after++
				if e.count != round {
					t.Errorf("group %d POLL after a NAK clamped to k states %d, want the round %d", e.group, e.count, round)
				}
			}
		}
		if after == 0 || later == 0 {
			t.Fatalf("%d groups cut and %d NAKs heard after the forged NAK; the row needs both", after, later)
		}
	})

	t.Run("last group's NAK answers within its span", func(t *testing.T) {
		last := uint32(0)
		for _, e := range log {
			if e.typ == packet.TypePoll {
				last = max(last, e.group)
			}
		}
		var poll *spanEvent
		for i := range log {
			e := &log[i]
			if e.firstPoll && e.group == last {
				poll = e
			}
			if poll == nil || !e.nak || e.group != last {
				continue
			}
			// Slot max(span − l, 0), jitter within the slot, and one
			// propagation delay (at most Delay + Jitter in the harness)
			// each way.
			span := min(round, poll.heardAtCut+1, cfg.MaxNakSlots)
			bound := time.Duration(max(span-e.count, 0)+1)*cfg.Ts + 2*3*time.Millisecond
			if e.at-poll.at > bound {
				t.Errorf("last group's first NAK (l = %d) reached the sender %v after its POLL (span %d), want within %v",
					e.count, e.at-poll.at, span, bound)
			}
			return
		}
		t.Fatal("the last group drew no NAK; the scenario no longer tests its tail")
	})
}
