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

// v1 and v2 build one wire frame: v1 frames state the group count (2) in
// Total, v2 frames — all of group 0 — their group's (k, h, codec).
func v1(typ packet.Type, group uint32, seq, k, count int, payload []byte) []byte {
	p := packet.Packet{Type: typ, Session: 5, Group: group, Seq: uint16(seq), K: uint16(k),
		Count: uint16(count), Total: 2, Payload: payload}
	return p.MustEncode()
}

func v2(typ packet.Type, seq, k, h int, codec, arg uint8, payload []byte) []byte {
	p := packet.Packet{Vers: packet.V2, Type: typ, Session: 5, Seq: uint16(seq), K: uint16(k),
		H: uint16(h), Codec: codec, CodecArg: arg, Payload: payload}
	if typ == packet.TypePoll {
		p.Count = uint16(k)
	}
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
// that makes the group's state visible (a POLL), and wantL is the deficit
// the first NAK must carry, 0 for none.
func TestHostileHeaderDifferential(t *testing.T) {
	shard := make([]byte, hostileShard)
	var rs, rect uint8 = packet.CodecRS, packet.CodecRect
	dataRun := func(from, to int) [][]byte { // v2 RS data seqs [from, to) of a (16, 8) group
		var fs [][]byte
		for s := from; s < to; s++ {
			fs = append(fs, v2(packet.TypeData, s, 16, 8, rs, 0, shard))
		}
		return fs
	}
	rows := []struct {
		name   string
		cfg    core.Config
		frames [][]byte
		wantL  int
	}{
		{"poll with a foreign K", hostileStatic(), [][]byte{
			v1(packet.TypeData, 0, 0, 8, 0, shard),
			v1(packet.TypePoll, 0, 0, 9, 8, nil),
		}, 0},
		{"poll whose k conflicts with the group's", hostileAdaptive(), [][]byte{
			v2(packet.TypeData, 0, 16, 8, rs, 0, shard),
			v2(packet.TypePoll, 0, 8, 12, rs, 0, nil),
		}, 0},
		{"v2 frames to a static session", hostileStatic(), [][]byte{
			v1(packet.TypeData, 0, 0, 8, 0, shard),
			v2(packet.TypeData, 1, 8, 8, rs, 0, shard),
			v2(packet.TypePoll, 0, 8, 8, rs, 0, nil),
			v1(packet.TypePoll, 0, 0, 8, 8, nil),
		}, 7},
		{"k beyond the ladder", hostileAdaptive(), [][]byte{
			v2(packet.TypeData, 0, 33, 4, rs, 0, shard),
			v2(packet.TypeData, 1, 16, 8, rs, 0, shard),
			v2(packet.TypePoll, 0, 16, 8, rs, 0, nil),
		}, 15},
		{"h beyond the ladder", hostileAdaptive(), [][]byte{
			v2(packet.TypeData, 0, 16, 13, rs, 0, shard),
			v2(packet.TypeData, 1, 16, 8, rs, 0, shard),
			v2(packet.TypePoll, 0, 16, 8, rs, 0, nil),
		}, 15},
		{"rect with arg != h", hostileAdaptive(), [][]byte{
			v2(packet.TypeData, 0, 32, 4, rect, 3, shard),
			v2(packet.TypeData, 1, 32, 4, rect, 4, shard),
			v2(packet.TypePoll, 0, 32, 4, rect, 4, nil),
		}, 31},
		{"unknown codec id", hostileAdaptive(), [][]byte{
			v2(packet.TypeData, 0, 16, 8, 7, 0, shard),
			v2(packet.TypeData, 1, 16, 8, rs, 0, shard),
			v2(packet.TypePoll, 0, 16, 8, rs, 0, nil),
		}, 15},
		{"codec conflicting with the group's", hostileAdaptive(), [][]byte{
			v2(packet.TypeData, 0, 16, 8, rs, 0, shard),
			v2(packet.TypeData, 1, 16, 8, rect, 8, shard),
			v2(packet.TypePoll, 0, 16, 8, rs, 0, nil),
		}, 15},
		{"group >= MaxGroups", hostileStatic(), [][]byte{
			v1(packet.TypeData, 4, 0, 8, 0, shard),
			v1(packet.TypePoll, 4, 0, 8, 8, nil),
			v1(packet.TypeData, 0, 0, 8, 0, shard),
			v1(packet.TypePoll, 0, 0, 8, 8, nil),
		}, 7},
		{"ncrepair with K > 63", hostileAdaptive(), append(dataRun(1, 16),
			v2(packet.TypeNcRepair, 0, 64, 0, rs, 0, ncCombo(1, hostileShard)),
			v2(packet.TypePoll, 0, 16, 8, rs, 0, nil),
		), 1},
		{"ncrepair with a short payload", hostileAdaptive(), append(dataRun(1, 16),
			v2(packet.TypeNcRepair, 0, 16, 8, rs, 0, ncCombo(1, hostileShard-1)),
			v2(packet.TypePoll, 0, 16, 8, rs, 0, nil),
		), 1},
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
		})
	}
}
