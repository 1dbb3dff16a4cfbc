package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"rmfec/internal/loss"
	"rmfec/internal/packet"
)

// TestNakForUnstreamedGroupIgnored pins the bound HandlePacket puts on a
// NAK's group: "streamed so far", under every policy. A forged or corrupt
// NAK naming the last group of a transfer that has barely started must be
// counted and dropped — no service round, no parity on the wire ahead of
// its data and, with the pipeline on, no Pool.Wait that would submit the
// whole encode backlog and block the engine on it.
func TestNakForUnstreamedGroupIgnored(t *testing.T) {
	for _, pl := range []PipelineConfig{{}, {Depth: 8, Workers: 3, Batch: 1}} {
		cfg := Config{Session: 7, K: 4, MaxParity: 2, Proactive: 1, ShardSize: 16,
			Delta: time.Millisecond, Pipeline: pl}
		env := newLoopEnv(1)
		dataSeen := map[uint32]bool{}
		env.deliver = func(b []byte) {
			var pkt packet.Packet
			if err := packet.DecodeInto(&pkt, b); err != nil {
				t.Fatalf("undecodable frame: %v", err)
			}
			switch pkt.Type {
			case packet.TypeData:
				dataSeen[pkt.Group] = true
			case packet.TypeParity:
				if !dataSeen[pkt.Group] {
					t.Fatalf("depth %d: parity of group %d on the wire ahead of its data", pl.Depth, pkt.Group)
				}
			}
		}
		s, err := NewSender(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const groups = 50
		if err := s.Send(transcriptMsg(groups * 4 * 16)); err != nil {
			t.Fatal(err)
		}
		if s.Groups() != groups || len(s.groups) != 1 {
			t.Fatalf("after Send: %d groups cut, %d streamed; want %d and 1", s.Groups(), len(s.groups), groups)
		}
		submitted := -1
		if pl.enabled() {
			submitted = s.enc.Submitted()
		}
		before, queued := s.Stats(), s.sendQ.size()

		nak := packet.Packet{Type: packet.TypeNak, Session: cfg.Session, Group: groups - 1, Count: 2}
		s.HandlePacket(nak.MustEncode())

		want := before
		want.NakRx++
		if got := s.Stats(); got != want {
			t.Errorf("depth %d: forged NAK changed more than NakRx:\n got %+v\nwant %+v", pl.Depth, got, want)
		}
		if s.sendQ.size() != queued {
			t.Errorf("depth %d: forged NAK queued %d packets", pl.Depth, s.sendQ.size()-queued)
		}
		if pl.enabled() && s.enc.Submitted() != submitted {
			t.Errorf("forged NAK advanced the encode pool from %d to %d submitted jobs", submitted, s.enc.Submitted())
		}
		env.run() // the deliver hook checks every parity follows its data
		if st := s.Stats(); st.NakServed != 0 || st.ParityTx != groups*cfg.Proactive {
			t.Errorf("depth %d: transfer served %d rounds and sent %d parities, want 0 and %d",
				pl.Depth, st.NakServed, st.ParityTx, groups*cfg.Proactive)
		}
		s.Close()
	}
}

// TestSendBorrowsMessage pins Send's ownership contract: the sender
// borrows msg until Close returns and never writes to it. The groups are
// views into the caller's buffer, so cutting allocates O(groups) and no
// copy of the payload; and after a lossy transfer (repairs encoded from
// the views, on the pool and serially) and Close, the buffer still equals
// a pristine copy. The caller then takes it back: under -race, a pool
// worker still reading it would be reported.
func TestSendBorrowsMessage(t *testing.T) {
	static := Config{Session: 7, K: 8, MaxParity: 4, Proactive: 1, ShardSize: 1024}
	ewma := static
	ewma.Adaptive = true
	ladder := adaptiveConfig()
	ladder.ShardSize = 1024
	policies := []struct {
		name string
		cfg  Config
	}{{"constant", static}, {"ewma", ewma}, {"ladder", ladder}}

	bernoulli := func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(0.05, rng) }
	type borrowCase struct {
		name   string
		cfg    Config
		n2     bool
		msgLen int
	}
	var cases []borrowCase
	for _, p := range policies {
		for _, pl := range []PipelineConfig{{}, {Depth: 8, Workers: 3, Batch: 1}} {
			cfg := p.cfg
			cfg.Pipeline = pl
			cases = append(cases, borrowCase{fmt.Sprintf("%s/depth%d", p.name, pl.Depth), cfg, false, 1<<20 + 17})
		}
	}
	cases = append(cases,
		borrowCase{"rect", rectRungConfig(GateForce), false, 20*64*12 + 5},
		borrowCase{"nc", ncRungConfig(), false, 8*64*20 + 3},
		borrowCase{"gf16", Config{Session: 7, K: 200, MaxParity: 100, Proactive: 2, ShardSize: 16}, false, 200*16*4 + 9},
		borrowCase{"n2", baseConfig(), true, 64*40 + 11},
		borrowCase{"partial-shard-only", static, false, 100},
		borrowCase{"empty", static, false, 0},
	)
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, harnessOpts{r: 3, cfg: tc.cfg, seed: 3201 + int64(i), mkLoss: bernoulli, n2: tc.n2})
			msg := testMessage(tc.msgLen, 3202+int64(i))
			pristine := bytes.Clone(msg)
			h.run(t, msg)
			h.sender.Close()
			if !bytes.Equal(msg, pristine) {
				j := 0
				for msg[j] == pristine[j] {
					j++
				}
				t.Fatalf("the sender wrote to the borrowed message: byte %d of %d is %#x, was %#x",
					j, len(msg), msg[j], pristine[j])
			}
			h.checkDelivered(t, pristine)
			// Each case must read the views the way it claims to.
			st := h.sender.Stats()
			switch {
			case tc.cfg.Pipeline.enabled() && h.sender.PipelineStats().EncodeHits == 0:
				t.Error("the encode-ahead pool encoded no group")
			case tc.cfg.NCRepair && st.NcTx == 0:
				t.Error("no NC repair was combined")
			case tc.n2 && st.DataTx <= h.sender.SourcePackets():
				t.Error("N2 retransmitted nothing")
			case !tc.n2 && st.Encoded == 0:
				t.Error("no parity was encoded")
			}
			for j := range msg {
				msg[j] ^= 0xA5 // the caller takes its buffer back
			}
		})
	}

	// The allocation bound, at depth 0 so only the cut is measured: per
	// group k slice headers and one txGroup, plus the first group's frames
	// and the send queue (the slack). It has no len(msg) term, so a copy
	// of the message fails it.
	for _, p := range policies {
		cfg := p.cfg
		msg := make([]byte, 1<<20+17)
		s, err := NewSender(newSinkEnv(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := s.Send(msg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		groups := s.Groups()
		bound := uint64(groups*(24*s.cfg.K+512) + 128<<10)
		if got := m1.TotalAlloc - m0.TotalAlloc; got > bound {
			t.Errorf("%s: Send allocated %d bytes for a %d-byte message in %d groups, want <= %d",
				p.name, got, len(msg), groups, bound)
		}
		s.Close()
	}
}

// TestNakServesOnlyTheResidual pins the NAK service rule on one streamed
// group: a NAK needing l is served l − max(queued, served − echo) repairs,
// served being what the group's service rounds have queued so far and echo
// the POLL count the NAK answers. A retry's 0xFFFF, or an echo past served
// (forged), counts the queue alone. The POLL closing the round states the
// new served, which saturates at 0xFFFE.
func TestNakServesOnlyTheResidual(t *testing.T) {
	rows := []struct {
		name                 string
		served, queued, echo int
		need, want           int
	}{
		{"echo older than the last round: only the residual", 10, 0, 4, 8, 2},
		{"echo older, and the queue covers more", 10, 7, 6, 8, 1},
		{"raced round covers the whole deficit", 10, 0, 2, 8, 0},
		{"echo equal to served: aggregated against the queue", 10, 3, 10, 8, 5},
		{"retry, no echo: served in full", 10, 0, noEcho, 8, 8},
		{"echo above served: served in full", 10, 0, 11, 8, 8},
		{"served saturates below the no-echo marker", maxServed - 2, 0, maxServed - 2, 5, 5},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := Config{Session: 7, K: 8, MaxParity: 32, ShardSize: 16, Delta: time.Millisecond}
			env := newLoopEnv(1)
			var polls []int
			env.deliver = func(b []byte) {
				var pkt packet.Packet
				if packet.DecodeInto(&pkt, b) == nil && pkt.Type == packet.TypePoll {
					polls = append(polls, int(pkt.Seq))
				}
			}
			s, err := NewSender(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Send(transcriptMsg(8 * 16)); err != nil {
				t.Fatal(err)
			}
			tg := s.groups[0]
			tg.served, tg.queued = row.served, row.queued
			nak := packet.Packet{Type: packet.TypeNak, Session: cfg.Session, Seq: uint16(row.echo), K: 8, Count: uint16(row.need)}
			s.HandlePacket(nak.MustEncode())
			if got := tg.queued - row.queued; got != row.want {
				t.Fatalf("NAK(l = %d, echo %d) with served %d, queued %d: %d repairs queued, want %d",
					row.need, row.echo, row.served, row.queued, got, row.want)
			}
			if want := min(row.served+row.want, maxServed); tg.served != want {
				t.Errorf("served = %d, want %d", tg.served, want)
			}
			env.run()
			// The service round went to the front of the queue, ahead of
			// round 1's POLL (built when served was 0).
			want := []int{0}
			if row.want > 0 {
				want = []int{tg.served, 0}
			}
			if !slices.Equal(polls, want) {
				t.Errorf("POLLs stated %v, want %v", polls, want)
			}
		})
	}
}
