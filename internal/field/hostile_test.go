package field_test

import (
	"bytes"
	"encoding/binary"
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

// hostileShard is the shard size of the hostile-header sessions.
const hostileShard = 16

func hostileStatic() core.Config {
	return core.Config{Session: 5, K: 8, MaxParity: 8, ShardSize: hostileShard,
		Ts: 2 * time.Millisecond, MaxNakSlots: 4, MaxGroups: 4}
}

func hostileAdaptive() core.Config {
	ac := adapt.DefaultConfig()
	ac.Ladder = adapt.PortfolioLadder()
	return core.Config{Session: 5, ShardSize: hostileShard, AdaptiveFEC: true, Adapt: ac,
		CodecGate: core.GateForce, NCRepair: true, Ts: 2 * time.Millisecond, MaxNakSlots: 4}
}

// static and tg build one wire frame: static frames carry hostileStatic's
// H and announce two groups' worth of shards (16) in Total, tg frames — all
// of group 0 — the (k, h, codec) given.
func static(typ packet.Type, group uint32, seq, k, count int, payload []byte) []byte {
	p := packet.Packet{Type: typ, Session: 5, Group: group, Seq: uint16(seq), K: uint16(k),
		H: 8, Count: uint16(count), Total: 16, Payload: payload}
	return p.MustEncode()
}

func tg(typ packet.Type, seq, k, h int, codec, arg uint8, payload []byte) []byte {
	p := packet.Packet{Type: typ, Session: 5, Seq: uint16(seq), K: uint16(k),
		H: uint16(h), Codec: codec, CodecArg: arg, Payload: payload}
	if typ == packet.TypePoll {
		p.Count = uint16(k)
	}
	return p.MustEncode()
}

// fin builds a FIN stating (k, h) and two groups.
func fin(k, h int) []byte {
	p := packet.Packet{Type: packet.TypeFin, Session: 5, K: uint16(k), H: uint16(h), Total: 2,
		Payload: make([]byte, 8)}
	return p.MustEncode()
}

// ncCombo is an NCREPAIR payload over the data seqs in mask, n bytes of
// combo after the mask.
func ncCombo(mask uint64, n int) []byte {
	b := make([]byte, packet.NcMaskLen+n)
	binary.BigEndian.PutUint64(b, mask)
	return b
}

// hostileRun feeds frames to one engine — a core.Receiver, or an
// Exact-mode Field fronting one loss-free receiver with the same jitter
// seed — lets its timers run for a second and returns every control frame
// it emitted and its NakTx.
func hostileRun(t *testing.T, cfg core.Config, frames [][]byte, useField bool) ([][]byte, int) {
	t.Helper()
	const netSeed = 21
	sched := simnet.NewScheduler()
	node := simnet.NewNetwork(sched, rand.New(rand.NewSource(netSeed))).AddNode(simnet.NodeConfig{Delay: equivDelay})
	var out [][]byte
	env := &sniffEnv{Node: node, frames: &out}
	var handle func([]byte)
	var nakTx func() int
	if useField {
		f, err := field.New(env, field.Config{
			Protocol:   cfg,
			Population: loss.NewBernoulliPopulation(1, 0, rand.New(rand.NewSource(1))),
			Exact:      true,
			JitterSeed: func(int) int64 { return rand.New(rand.NewSource(netSeed)).Int63() },
		})
		if err != nil {
			t.Fatal(err)
		}
		handle, nakTx = f.HandlePacket, func() int { return int(f.Stats().NakTx) }
	} else {
		rc, err := core.NewReceiver(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rc.OnComplete = func([]byte) {}
		handle, nakTx = rc.HandlePacket, func() int { return rc.Stats().NakTx }
	}
	for _, b := range frames {
		handle(b)
	}
	sched.RunUntil(time.Second)
	return out, nakTx()
}

// TestHostileHeaderDifferential feeds crafted frames to a core.Receiver
// and to an Exact-mode Field and demands the same NAKs, byte for byte:
// both engines admit frames by one set of rules. Each row ends in a frame
// that makes the group's state visible (a POLL or a FIN), and wantL is the
// deficit the first NAK must carry, 0 for none. Where set, echo lists the
// Seq the first NAKs must carry: the POLL's, then a retry's 0xFFFF.
func TestHostileHeaderDifferential(t *testing.T) {
	shard := make([]byte, hostileShard)
	var rs, rect uint8 = packet.CodecRS, packet.CodecRect
	dataRun := func(from, to int) [][]byte { // RS data seqs [from, to) of a (16, 8) group
		var fs [][]byte
		for s := from; s < to; s++ {
			fs = append(fs, tg(packet.TypeData, s, 16, 8, rs, 0, shard))
		}
		return fs
	}
	rows := []struct {
		name   string
		cfg    core.Config
		frames [][]byte
		wantL  int
		echo   []uint16
	}{
		{"poll with a foreign K", hostileStatic(), [][]byte{
			static(packet.TypeData, 0, 0, 8, 0, shard),
			static(packet.TypePoll, 0, 0, 9, 8, nil),
		}, 0, nil},
		{"poll whose k conflicts with the group's", hostileAdaptive(), [][]byte{
			tg(packet.TypeData, 0, 16, 8, rs, 0, shard),
			tg(packet.TypePoll, 0, 8, 12, rs, 0, nil),
		}, 0, nil},
		{"frames at another working point (H, codec)", hostileStatic(), [][]byte{
			static(packet.TypeData, 0, 0, 8, 0, shard),
			tg(packet.TypeData, 1, 8, 4, rs, 0, shard),
			tg(packet.TypeData, 2, 8, 8, rect, 8, shard),
			tg(packet.TypePoll, 0, 8, 4, rs, 0, nil),
			static(packet.TypePoll, 0, 0, 8, 8, nil),
		}, 7, nil},
		{"k beyond the ladder", hostileAdaptive(), [][]byte{
			tg(packet.TypeData, 0, 33, 4, rs, 0, shard),
			tg(packet.TypeData, 1, 16, 8, rs, 0, shard),
			tg(packet.TypePoll, 0, 16, 8, rs, 0, nil),
		}, 15, nil},
		{"h beyond the ladder", hostileAdaptive(), [][]byte{
			tg(packet.TypeData, 0, 16, 13, rs, 0, shard),
			tg(packet.TypeData, 1, 16, 8, rs, 0, shard),
			tg(packet.TypePoll, 0, 16, 8, rs, 0, nil),
		}, 15, nil},
		{"rect with arg != h", hostileAdaptive(), [][]byte{
			tg(packet.TypeData, 0, 32, 4, rect, 3, shard),
			tg(packet.TypeData, 1, 32, 4, rect, 4, shard),
			tg(packet.TypePoll, 0, 32, 4, rect, 4, nil),
		}, 31, nil},
		{"unknown codec id", hostileAdaptive(), [][]byte{
			tg(packet.TypeData, 0, 16, 8, 7, 0, shard),
			tg(packet.TypeData, 1, 16, 8, rs, 0, shard),
			tg(packet.TypePoll, 0, 16, 8, rs, 0, nil),
		}, 15, nil},
		{"codec conflicting with the group's", hostileAdaptive(), [][]byte{
			tg(packet.TypeData, 0, 16, 8, rs, 0, shard),
			tg(packet.TypeData, 1, 16, 8, rect, 8, shard),
			tg(packet.TypePoll, 0, 16, 8, rs, 0, nil),
		}, 15, nil},
		{"FIN at the session's working point", hostileStatic(), [][]byte{fin(8, 8)}, 8, nil},
		{"POLL with Seq 7: the NAK echoes it, its retry echoes none", hostileStatic(), [][]byte{
			static(packet.TypeData, 0, 0, 8, 0, shard),
			static(packet.TypePoll, 0, 7, 8, 8, nil),
		}, 7, []uint16{7, 0xFFFF}},
		{"adaptive POLL with Seq 7, NAK with a loss map", hostileAdaptive(), append(dataRun(1, 16),
			tg(packet.TypePoll, 7, 16, 8, rs, 0, nil),
		), 1, []uint16{7, 0xFFFF}},
		{"FIN of another K, or of a renegotiating session (H = 0)", hostileStatic(), [][]byte{
			fin(16, 8),
			fin(8, 0),
		}, 0, nil},
		{"group >= MaxGroups", hostileStatic(), [][]byte{
			static(packet.TypeData, 4, 0, 8, 0, shard),
			static(packet.TypePoll, 4, 0, 8, 8, nil),
			static(packet.TypeData, 0, 0, 8, 0, shard),
			static(packet.TypePoll, 0, 0, 8, 8, nil),
		}, 7, nil},
		{"ncrepair with K > 63", hostileAdaptive(), append(dataRun(1, 16),
			tg(packet.TypeNcRepair, 0, 64, 0, rs, 0, ncCombo(1, hostileShard)),
			tg(packet.TypePoll, 0, 16, 8, rs, 0, nil),
		), 1, nil},
		{"ncrepair with a short payload", hostileAdaptive(), append(dataRun(1, 16),
			tg(packet.TypeNcRepair, 0, 16, 8, rs, 0, ncCombo(1, hostileShard-1)),
			tg(packet.TypePoll, 0, 16, 8, rs, 0, nil),
		), 1, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ref, refTx := hostileRun(t, row.cfg, row.frames, false)
			got, gotTx := hostileRun(t, row.cfg, row.frames, true)
			if refTx != gotTx || len(ref) != len(got) {
				t.Fatalf("receiver sent %d NAKs (%d frames), field %d (%d frames)", refTx, len(ref), gotTx, len(got))
			}
			for i := range ref {
				if !bytes.Equal(ref[i], got[i]) {
					t.Fatalf("control frame %d: receiver %x, field %x", i, ref[i], got[i])
				}
			}
			l := 0
			if len(ref) > 0 {
				var nak packet.Packet
				if err := packet.DecodeInto(&nak, ref[0]); err != nil || nak.Type != packet.TypeNak {
					t.Fatalf("first control frame %x is not a NAK (%v)", ref[0], err)
				}
				l = int(nak.Count)
			}
			if l != row.wantL {
				t.Fatalf("first NAK carries deficit %d, want %d", l, row.wantL)
			}
			if len(ref) < len(row.echo) {
				t.Fatalf("%d NAKs, want at least %d", len(ref), len(row.echo))
			}
			for i, want := range row.echo {
				var nak packet.Packet
				if err := packet.DecodeInto(&nak, ref[i]); err != nil || nak.Seq != want {
					t.Fatalf("NAK %d echoes Seq %d (%v), want %d", i, nak.Seq, err, want)
				}
			}
		})
	}
}
