package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rmfec/internal/adapt"
	"rmfec/internal/loss"
	"rmfec/internal/packet"
)

// TestPortfolioCodecByIDRoundTrip pins the wire identity contract of every
// registered codec: constructing a codec from a wire (id, arg) pair and
// reading ID() back must reproduce the pair, and malformed pairs must be
// rejected rather than silently mapped to a different code.
func TestPortfolioCodecByIDRoundTrip(t *testing.T) {
	cases := []struct {
		id, arg uint8
		k, h    int
	}{
		{packet.CodecRS, 0, 20, 5},    // GF(2^8) Reed-Solomon
		{packet.CodecRS, 0, 200, 100}, // GF(2^16) Reed-Solomon (k+h > 255)
		{packet.CodecRect, 5, 20, 5},  // interleaved XOR rectangular
		{packet.CodecRect, 3, 12, 3},
	}
	for _, c := range cases {
		codec, err := newCodecID(c.id, c.arg, c.k, c.h, 64, nil)
		if err != nil {
			t.Fatalf("newCodecID(%d,%d,k=%d,h=%d): %v", c.id, c.arg, c.k, c.h, err)
		}
		if id, arg := codec.ID(); id != c.id || arg != c.arg {
			t.Errorf("codec (%d,%d) reports wire identity (%d,%d)", c.id, c.arg, id, arg)
		}
	}
	for _, c := range []struct {
		id, arg uint8
		k, h    int
	}{
		{packet.CodecRS, 1, 20, 5},                                  // RS arg must be 0
		{packet.CodecRect, 4, 20, 5},                                // rect arg must equal h
		{packet.CodecRect, 44, 40, 44} /* k+d > 64 */, {7, 0, 8, 2}, // unknown id
	} {
		if _, err := newCodecID(c.id, c.arg, c.k, c.h, 64, nil); err == nil {
			t.Errorf("newCodecID(%d,%d,k=%d,h=%d) accepted a malformed pair", c.id, c.arg, c.k, c.h)
		}
	}
}

// TestCodecEncodeMatchesEncodeParity pins what the encode-ahead job and
// the serial parity runs rely on: a block's row j from one EncodeRows over
// all h rows is byte for byte the row computed alone, and within a run
// that starts past row 0, on every backend, so a group's parities do not
// depend on whether the pool or parityRun computed them.
func TestCodecEncodeMatchesEncodeParity(t *testing.T) {
	for _, c := range []struct {
		name    string
		id, arg uint8
		k, h    int
	}{
		{"rs8", packet.CodecRS, 0, 20, 5},
		{"rs16", packet.CodecRS, 0, 300, 8},
		{"rect", packet.CodecRect, 4, 8, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			const size = 64 // even, as GF(2^16) requires
			codec, err := newCodecID(c.id, c.arg, c.k, c.h, size, nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(c.k)))
			data := make([][]byte, c.k)
			for i := range data {
				data[i] = make([]byte, size)
				rng.Read(data[i])
			}
			parity := make([][]byte, c.h)
			if err := codec.EncodeRows(0, data, parity); err != nil {
				t.Fatal(err)
			}
			tail := make([][]byte, c.h-1)
			if err := codec.EncodeRows(1, data, tail); err != nil {
				t.Fatal(err)
			}
			for j := range parity {
				one := make([][]byte, 1)
				if err := codec.EncodeRows(j, data, one); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(parity[j], one[0]) || j > 0 && !bytes.Equal(tail[j-1], one[0]) {
					t.Fatalf("row %d of a run differs from row %d alone", j, j)
				}
			}
		})
	}
}

// rectRungConfig is an adaptive session pinned to a single rectangular-
// coded rung, with proactive parities so the encode-ahead pool actually
// exercises the XOR kernels.
func rectRungConfig(gate int) Config {
	ac := adapt.DefaultConfig()
	ac.Ladder = []adapt.Rung{{PMax: 1, P: adapt.Params{K: 20, H: 5, A: 2, Codec: packet.CodecRect, CodecArg: 5}}}
	cfg := adaptiveConfig()
	cfg.Adapt = ac
	cfg.CodecGate = gate
	return cfg
}

// TestPortfolioRectTranscriptDeterministic is the encode-ahead
// equivalence gate for the rectangular codec: a rect-coded adaptive
// sender must put byte-identical frames on the wire at pipeline depth 0
// and at any depth and worker count, and (under GateForce) every
// data-plane frame must carry the rect wire identity.
func TestPortfolioRectTranscriptDeterministic(t *testing.T) {
	const msgLen = 20 * 64 * 12 // 12 groups at the rung's working point
	serial := senderTranscript(t, rectRungConfig(GateForce), msgLen)

	for _, pc := range []PipelineConfig{
		{Depth: 4, Workers: 1, Batch: 1},
		{Depth: 8, Workers: 3, Batch: 1},
		{Depth: 8, Workers: 4, Batch: 1},
	} {
		cfg := rectRungConfig(GateForce)
		cfg.Pipeline = pc
		if got := senderTranscript(t, cfg, msgLen); got != serial {
			t.Errorf("pipeline %+v: rect transcript differs from serial:\n got %s\nwant %s", pc, got, serial)
		}
	}

	// Decode the serial run's frames: under GateForce every data and
	// parity frame is stamped with the rect identity (1, d=h).
	env := newLoopEnv(1)
	var data, parity int
	env.deliver = func(b []byte) {
		var pkt packet.Packet
		if err := packet.DecodeInto(&pkt, b); err != nil {
			t.Fatalf("undecodable frame on the wire: %v", err)
		}
		switch pkt.Type {
		case packet.TypeData, packet.TypeParity:
			if pkt.Codec != packet.CodecRect || pkt.CodecArg != 5 {
				t.Fatalf("%v frame carries codec (%d,%d), want (%d,5)", pkt.Type, pkt.Codec, pkt.CodecArg, packet.CodecRect)
			}
			if pkt.Type == packet.TypeData {
				data++
			} else {
				parity++
			}
		}
	}
	s, err := NewSender(env, rectRungConfig(GateForce))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Send(transcriptMsg(msgLen)); err != nil {
		t.Fatal(err)
	}
	env.run()
	if data == 0 || parity == 0 {
		t.Fatalf("rect run sent %d data / %d parity frames; proactive rect encode never ran", data, parity)
	}
	if env.hash.sum() != serial {
		t.Error("decoding pass diverged from the reference transcript")
	}

	// GateOff pins the same session to RS at the same (k, h, a).
	env = newLoopEnv(1)
	env.deliver = func(b []byte) {
		var pkt packet.Packet
		if err := packet.DecodeInto(&pkt, b); err != nil {
			t.Fatalf("undecodable frame on the wire: %v", err)
		}
		if (pkt.Type == packet.TypeData || pkt.Type == packet.TypeParity) && pkt.Codec != packet.CodecRS {
			t.Fatalf("GateOff let codec %d onto the wire", pkt.Codec)
		}
	}
	s2, err := NewSender(env, rectRungConfig(GateOff))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Send(transcriptMsg(msgLen)); err != nil {
		t.Fatal(err)
	}
	env.run()
}

// TestPortfolioRectLossyDelivery runs the rect-coded session over simnet
// with scattered loss: rect repairs what it can (one loss per class) and
// the parity-exhaustion fallback covers the rest, so delivery must be
// exact even when classes take multiple hits.
func TestPortfolioRectLossyDelivery(t *testing.T) {
	cfg := rectRungConfig(GateForce)
	cfg.Pipeline = PipelineConfig{Depth: 4, Workers: 2, Batch: 1}
	h := newHarness(t, harnessOpts{
		r:   3,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.04, rng)
		},
		seed: 2203,
	})
	msg := testMessage(20*64*30+17, 2204)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	if st := h.sender.Stats(); st.ParityTx == 0 {
		t.Error("lossy rect transfer sent no parities")
	}
}

// codecSchedule renders the retune schedule extended with each group's
// negotiated wire codec, so determinism checks cover codec switching too.
func codecSchedule(s *Sender) string {
	var b strings.Builder
	for _, tg := range s.groups {
		fmt.Fprintf(&b, "%d:(%d,%d,a%d,c%d/%d);", tg.index, tg.k, tg.h, tg.aUsed, tg.codecID, tg.codecArg)
	}
	fmt.Fprintf(&b, "|retunes=%d|rung=%d", s.ctl.Retunes(), s.ctl.Rung())
	return b.String()
}

// runPortfolioShift executes one seeded loss-shift transfer on the
// portfolio ladder and returns the codec-extended schedule and deliveries.
// The channel starts at 0.1% loss (rect rungs) and degrades to 15%
// (Reed-Solomon rungs), so the schedule records a codec switch at a group
// boundary.
func runPortfolioShift(t testing.TB, cfg Config, seed int64) (string, [][]byte) {
	h := newHarness(t, harnessOpts{
		r:   2,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return &shiftLoss{
				first:     loss.NewBernoulli(0.001, rng),
				second:    loss.NewBernoulli(0.15, rng),
				remaining: 700,
			}
		},
		seed: seed,
	})
	msg := testMessage(120000, seed+1)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	return codecSchedule(h.sender), h.delivered
}

func portfolioConfig(gate int) Config {
	ac := adapt.DefaultConfig()
	ac.Window = 12
	ac.MinDwell = 4
	ac.MinBurstObs = 6
	ac.ProbeEvery = 4
	ac.Ladder = adapt.PortfolioLadder()
	cfg := adaptiveConfig()
	cfg.Adapt = ac
	cfg.CodecGate = gate
	return cfg
}

// TestPortfolioCodecSwitchDeterministic is the acceptance property for the
// codec-switch path: a transfer that renegotiates from the rect rungs to
// the Reed-Solomon rungs mid-stream must produce an identical
// codec-extended schedule and identical deliveries at pipeline depth 0 and
// at any depth and worker count.
func TestPortfolioCodecSwitchDeterministic(t *testing.T) {
	variants := []PipelineConfig{
		{},
		{Depth: 4, Workers: 1, Batch: 1},
		{Depth: 4, Workers: 4, Batch: 1},
		{Depth: 8, Workers: 3, Batch: 1},
	}
	var refSched string
	var refDeliv [][]byte
	for i, pc := range variants {
		cfg := portfolioConfig(GateForce)
		cfg.Pipeline = pc
		sched, deliv := runPortfolioShift(t, cfg, 2301)
		if i == 0 {
			refSched, refDeliv = sched, deliv
			continue
		}
		if sched != refSched {
			t.Errorf("pipeline %+v diverged from the serial codec schedule:\n got %s\nwant %s", pc, sched, refSched)
		}
		for j := range deliv {
			if !bytes.Equal(deliv[j], refDeliv[j]) {
				t.Errorf("pipeline %+v: receiver %d delivery differs from serial run", pc, j)
			}
		}
	}
	if !strings.Contains(refSched, ",c1/") {
		t.Errorf("portfolio shift cut no rect-coded groups; codec-switch check is vacuous: %s", refSched)
	}
	if !strings.Contains(refSched, ",c0/0)") {
		t.Errorf("portfolio shift cut no RS-coded groups after the loss shift: %s", refSched)
	}
}

// TestPortfolioGateModes checks the gate's three modes on the same
// scenario: GateOff never lets a non-RS codec on the wire, and
// GateMeasure (the default) admits rect on both portfolio rungs by its
// cost rule, so its schedule is GateForce's byte for byte, on any host.
func TestPortfolioGateModes(t *testing.T) {
	sched, _ := runPortfolioShift(t, portfolioConfig(GateOff), 2301)
	if strings.Contains(sched, ",c1/") {
		t.Errorf("GateOff let the rect codec onto the wire: %s", sched)
	}
	forced, _ := runPortfolioShift(t, portfolioConfig(GateForce), 2301)
	if sched, _ = runPortfolioShift(t, portfolioConfig(GateMeasure), 2301); sched != forced {
		t.Errorf("GateMeasure schedule differs from GateForce's:\n got %s\nwant %s", sched, forced)
	}
}

// ncNak synthesizes the NAK a receiver with missing-data bitmap mask
// and deficit count would multicast.
func ncNak(cfg Config, group uint32, count int, mask uint64) []byte {
	var payload [packet.NcMaskLen]byte
	binary.BigEndian.PutUint64(payload[:], mask)
	p := packet.Packet{
		Type:    packet.TypeNak,
		Session: cfg.Session,
		Group:   group,
		Count:   uint16(count),
		Payload: payload[:],
	}
	return p.MustEncode()
}

func ncRungConfig() Config {
	ac := adapt.DefaultConfig()
	ac.Ladder = []adapt.Rung{{PMax: 1, P: adapt.Params{K: 8, H: 2, A: 0}}}
	cfg := adaptiveConfig()
	cfg.Adapt = ac
	cfg.NCRepair = true
	return cfg
}

// TestNcComboPacking is the network-coded retransmission end-to-end case
// from the NC literature: receiver A misses data {0,2,4}, receiver B
// misses {1,3}, and both lost the round's parities. Aggregating both loss
// maps, the greedy packer covers the 5-seq union with 3 XOR combos
// ({0^1}, {2^3}, {4}) — each receiver XORs out the members it holds and
// recovers a different shard from the same frame — where per-receiver
// resends would need 5 and the parity budget (h=2) covers neither alone.
func TestNcComboPacking(t *testing.T) {
	cfg := ncRungConfig()
	env := newLoopEnv(1)

	// Receivers hang off dead event loops: frames are fed by hand below,
	// and their own NAK timers never fire — the NAKs are injected with
	// exact deficits and maps to make the aggregation deterministic.
	newRx := func() (*Receiver, *[]byte) {
		rc, err := NewReceiver(newLoopEnv(2), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		rc.OnComplete = func(m []byte) { got = append([]byte(nil), m...) }
		return rc, &got
	}
	rcvA, gotA := newRx()
	rcvB, gotB := newRx()
	dropA := map[uint16]bool{0: true, 2: true, 4: true}
	dropB := map[uint16]bool{1: true, 3: true}

	var s *Sender
	injected := false
	env.deliver = func(b []byte) {
		var pkt packet.Packet
		if err := packet.DecodeInto(&pkt, b); err != nil {
			t.Fatalf("undecodable frame: %v", err)
		}
		switch pkt.Type {
		case packet.TypeParity:
			return // both receivers lose every parity of the round
		case packet.TypeData:
			if !dropA[pkt.Seq] {
				rcvA.HandlePacket(b)
			}
			if !dropB[pkt.Seq] {
				rcvB.HandlePacket(b)
			}
			return
		case packet.TypePoll:
			if !injected {
				injected = true
				// B's deficit (2) is served first and fits the parity
				// budget, so its map survives the round; A's NAK then
				// overflows the budget and triggers NC over both maps.
				env.After(0, func() {
					s.HandlePacket(ncNak(cfg, 0, 2, 0b01010))
					s.HandlePacket(ncNak(cfg, 0, 3, 0b10101))
				})
			}
		}
		rcvA.HandlePacket(b)
		rcvB.HandlePacket(b)
	}

	s, err := NewSender(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	msg := testMessage(8*64, 2401) // exactly one TG at the rung's k
	if err := s.Send(msg); err != nil {
		t.Fatal(err)
	}
	env.run()

	st := s.Stats()
	if st.NcRounds != 1 || st.NcTx != 3 || st.ParityTx != 2 {
		t.Errorf("NC round shape: NcRounds=%d NcTx=%d ParityTx=%d, want 1/3/2", st.NcRounds, st.NcTx, st.ParityTx)
	}
	if !bytes.Equal(*gotA, msg) {
		t.Error("receiver A failed to recover from NC combos")
	}
	if !bytes.Equal(*gotB, msg) {
		t.Error("receiver B failed to recover from NC combos")
	}
	if sa := rcvA.Stats(); sa.NcRepaired != 3 {
		t.Errorf("receiver A repaired %d shards from combos, want 3 (%+v)", sa.NcRepaired, sa)
	}
	if sb := rcvB.Stats(); sb.NcRepaired != 2 || sb.NcRx != 2 {
		// B finishes on the second combo; the third lands on a done group.
		t.Errorf("receiver B: NcRepaired=%d NcRx=%d, want 2/2", sb.NcRepaired, sb.NcRx)
	}
}

// taggedEnv multiplexes several engines onto one shared virtual-time loop,
// tagging each Multicast with its origin so the router can emulate a
// multicast medium (no loopback to the sender of a frame).
type taggedEnv struct {
	*loopEnv
	id    int
	route func(from int, b []byte)
}

func (e taggedEnv) Multicast(b []byte) error {
	e.hash.add(b)
	e.route(e.id, b)
	return nil
}
func (e taggedEnv) MulticastControl(b []byte) error { return e.Multicast(b) }

// runNcScatter runs one sender and two real receivers on a shared
// virtual-time loop under a scripted scattered-loss pattern: receiver A
// loses data {5,6,7} of group 0 and every parity, receiver B loses data
// {1,3}. It returns the repair-packet count (every transmission beyond the
// 8 originals and the control plane) and the sender stats.
func runNcScatter(t *testing.T, nc bool) (int, SenderStats) {
	t.Helper()
	cfg := ncRungConfig()
	cfg.NCRepair = nc

	env := newLoopEnv(1)
	var s *Sender
	var rcv [2]*Receiver
	var got [2][]byte
	drops := [2]map[uint16]bool{
		{5: true, 6: true, 7: true},
		{1: true, 3: true},
	}
	route := func(from int, b []byte) {
		var pkt packet.Packet
		if err := packet.DecodeInto(&pkt, b); err != nil {
			t.Fatalf("undecodable frame: %v", err)
		}
		if from < 0 {
			// Sender frame: fan out to the receivers, consuming the
			// scripted one-shot drops (carousel re-sends get through).
			for i, rc := range rcv {
				if pkt.Type == packet.TypeParity && i == 0 {
					continue // A is parity-blind: forces the carousel
				}
				if pkt.Type == packet.TypeData && drops[i][pkt.Seq] {
					delete(drops[i], pkt.Seq)
					continue
				}
				rc.HandlePacket(b)
			}
			return
		}
		// Receiver NAK: the sender and the *other* receiver hear it.
		s.HandlePacket(b)
		for i, rc := range rcv {
			if i != from {
				rc.HandlePacket(b)
			}
		}
	}

	var err error
	s, err = NewSender(taggedEnv{env, -1, route}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := range rcv {
		i := i
		rcv[i], err = NewReceiver(taggedEnv{env, i, route}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rcv[i].OnComplete = func(m []byte) { got[i] = append([]byte(nil), m...) }
	}

	msg := testMessage(8*64, 2501)
	if err := s.Send(msg); err != nil {
		t.Fatal(err)
	}
	env.run()

	for i := range got {
		if !bytes.Equal(got[i], msg) {
			t.Fatalf("nc=%v: receiver %d did not recover the message", nc, i)
		}
	}
	st := s.Stats()
	repairs := (st.DataTx - 8) + st.ParityTx + st.NcTx
	return repairs, st
}

// TestNcFewerRepairsThanParityCarousel is the NC acceptance scenario:
// under scattered loss that exceeds the parity budget, network-coded
// retransmission must repair the population in fewer packets than the
// parity-exhaustion carousel, because combos target the exact lost seqs
// instead of blindly rotating originals.
func TestNcFewerRepairsThanParityCarousel(t *testing.T) {
	ncRepairs, ncStats := runNcScatter(t, true)
	baseRepairs, baseStats := runNcScatter(t, false)
	if ncStats.NcRounds == 0 || ncStats.NcTx == 0 {
		t.Fatalf("NC run never fired an NC round: %+v", ncStats)
	}
	if baseStats.NcTx != 0 {
		t.Fatalf("baseline run sent NCREPAIR frames: %+v", baseStats)
	}
	if ncRepairs >= baseRepairs {
		t.Errorf("NC used %d repair packets, carousel baseline %d; want strictly fewer (nc=%+v base=%+v)",
			ncRepairs, baseRepairs, ncStats, baseStats)
	}
}

// TestWideRSParityPinned pins the GF(2^16) Reed-Solomon parity bytes: for
// each working point past the GF(2^8) block limit, the SHA-256 of every
// parity row, in order, that Encode computes from seeded 64-byte data
// shards. The wide field's generator is wire format — a receiver decodes
// with its own copy — so these must not move.
func TestWideRSParityPinned(t *testing.T) {
	for _, c := range []struct {
		k, h int
		want string
	}{
		{200, 100, "3b16186fa8dc700aad53df5d5c9cbf2cb969f16143309cb9cd5f40d5007d12a7"},
		{300, 60, "052c60705148b24baf4349c30b190dbd4dce3cc206c8d62e23a93880fce65f05"},
		{1200, 40, "cfd433c887cd341e56f1adb9d0802b800765611550907c7c5c857812ca2cbcd3"},
	} {
		const size = 64
		codec, err := newCodecID(packet.CodecRS, 0, c.k, c.h, size, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(c.k*1000 + c.h)))
		data := make([][]byte, c.k)
		for i := range data {
			data[i] = make([]byte, size)
			rng.Read(data[i])
		}
		parity := make([][]byte, c.h)
		if err := codec.EncodeRows(0, data, parity); err != nil {
			t.Fatal(err)
		}
		sum := sha256.New()
		for _, p := range parity {
			sum.Write(p)
		}
		if got := fmt.Sprintf("%x", sum.Sum(nil)); got != c.want {
			t.Errorf("k=%d h=%d: parity hash %s, want %s", c.k, c.h, got, c.want)
		}
	}
}
