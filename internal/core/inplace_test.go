package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rmfec/internal/loss"
	"rmfec/internal/packet"
)

// wireFrame is one captured sender frame with the header fields the
// in-place tests steer by.
type wireFrame struct {
	typ   packet.Type
	group uint32
	seq   int
	raw   []byte
}

// captureWire runs a lossless sender-only transfer with every parity sent
// proactively (a = h) and returns each frame it multicast, in order: all
// k+h shards of every group, the POLLs and the FINs. Tests feed a receiver
// any subset in any order.
func captureWire(t testing.TB, cfg Config, msg []byte) []wireFrame {
	t.Helper()
	cfg.Defaults()
	cfg.Proactive = cfg.MaxParity
	env := newLoopEnv(1)
	var frames []wireFrame
	env.deliver = func(b []byte) {
		var pkt packet.Packet
		if err := packet.DecodeInto(&pkt, b); err != nil {
			t.Fatalf("undecodable frame: %v", err)
		}
		frames = append(frames, wireFrame{pkt.Type, pkt.Group, int(pkt.Seq), append([]byte(nil), b...)})
	}
	s, err := NewSender(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Send(msg); err != nil {
		t.Fatal(err)
	}
	env.run()
	return frames
}

// directReceiver is an OnComplete-mode receiver on a dead event loop: its
// NAK timers never fire, frames are fed by hand.
func directReceiver(t testing.TB, cfg Config) (*Receiver, *[]byte) {
	t.Helper()
	r, err := NewReceiver(newSinkEnv(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := new([]byte)
	r.OnComplete = func(m []byte) { *got = m }
	return r, got
}

func feed(r *Receiver, frames []wireFrame, keep func(f wireFrame) bool) {
	for _, f := range frames {
		if keep == nil || keep(f) {
			r.HandlePacket(f.raw)
		}
	}
}

func inplaceConfig() Config {
	return Config{Session: 7, K: 8, MaxParity: 8, ShardSize: 64}
}

// TestInPlaceNoGatherOnStaticPath is the copy-once acceptance property: on
// the static RS OnComplete path no payload byte is copied twice — the
// delivery gather finds every shard already at its final offset, whether
// it was received or Reed-Solomon-rebuilt (1, 2 or all k data shards lost
// per group). With the buffer committed in many small steps a clean
// transfer still gathers nothing; under loss a step is refused until the
// accepted bytes catch up (4x rule), so a few shards at each boundary are
// pooled and gathered — the exception the rule allows, kept small.
func TestInPlaceNoGatherOnStaticPath(t *testing.T) {
	cfg := inplaceConfig()
	msg := testMessage(cfg.K*cfg.ShardSize*40+17, 11)
	frames := captureWire(t, cfg, msg)
	for _, tc := range []struct {
		name       string
		lost       int // data shards dropped per group, replaced by parities
		firstStep  int
		maxGathers int
	}{
		{"clean", 0, firstCommit, 0},
		{"lost1", 1, firstCommit, 0},
		{"lost2", 2, firstCommit, 0},
		{"lostK", cfg.K, firstCommit, 0},
		{"clean/stepped-commit", 0, 3 * cfg.ShardSize, 0},
		{"lost2/stepped-commit", 2, 3 * cfg.ShardSize, 41 * cfg.K / 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, got := directReceiver(t, cfg)
			r.firstStep = tc.firstStep
			feed(r, frames, func(f wireFrame) bool {
				switch f.typ {
				case packet.TypeData: // rotate the loss pattern across groups
					return (f.seq+int(f.group))%cfg.K >= tc.lost
				case packet.TypeParity:
					return f.seq-cfg.K < tc.lost
				}
				return true
			})
			if !bytes.Equal(*got, msg) {
				t.Fatalf("delivered %d bytes, want the %d sent", len(*got), len(msg))
			}
			if r.gathers > tc.maxGathers {
				t.Errorf("gather copied %d shards, want <= %d", r.gathers, tc.maxGathers)
			}
			want := 0
			if tc.lost > 0 {
				want = 41 // every group
			}
			if r.Stats().Decodes != want {
				t.Errorf("%d decodes, want %d", r.Stats().Decodes, want)
			}
		})
	}
}

// TestInPlaceArrivalOrders drives the placement rule through the orders a
// real network produces: a late join (the first packet seen belongs to a
// late group), groups completing out of order, shuffled shards with a
// duplicate of each. With the buffer committed up front all of it is placed
// (no gather); with a tiny first step the shards beyond the committed
// prefix fall back to the pool and the gather puts them in place.
func TestInPlaceArrivalOrders(t *testing.T) {
	cfg := inplaceConfig()
	msg := testMessage(cfg.K*cfg.ShardSize*24+5, 12)
	frames := captureWire(t, cfg, msg)
	var shards, fin []wireFrame
	for _, f := range frames {
		switch {
		case f.typ == packet.TypeData:
			shards = append(shards, f)
		case f.typ == packet.TypeFin:
			fin = append(fin, f)
		}
	}
	half := len(shards) / 2
	lateJoin := append(append([]wireFrame{}, shards[half:]...), shards[:half]...)
	shuffled := append(append([]wireFrame{}, shards...), shards...) // every shard twice
	rand.New(rand.NewSource(13)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, tc := range []struct {
		name       string
		order      []wireFrame
		firstStep  int
		wantGather bool
		dups       bool
	}{
		{"late-join", lateJoin, firstCommit, false, false},
		{"late-join/stepped-commit", lateJoin, 2 * cfg.ShardSize, true, false},
		{"shuffled+dups", shuffled, firstCommit, false, true},
		{"shuffled+dups/stepped-commit", shuffled, 2 * cfg.ShardSize, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, got := directReceiver(t, cfg)
			r.firstStep = tc.firstStep
			feed(r, tc.order, nil)
			feed(r, fin[:1], nil)
			if !bytes.Equal(*got, msg) {
				t.Fatalf("delivered %d bytes, want the %d sent", len(*got), len(msg))
			}
			if (r.gathers > 0) != tc.wantGather {
				t.Errorf("gather copied %d shards, want >0: %v", r.gathers, tc.wantGather)
			}
			// Duplicates of a finished group are dropped uncounted.
			if (r.Stats().DupRx > 0) != tc.dups {
				t.Errorf("%d duplicates counted, want >0: %v", r.Stats().DupRx, tc.dups)
			}
		})
	}
}

// TestGroupMemo: Receiver.group remembers its last answer. The memo must
// die with a streaming-mode release — a late duplicate of the released
// group finds neither it nor a map entry to resurrect, and the recycled
// rxGroup serves the next group under its own index — and the memoised
// group is still an entry of r.groups, so a buffer step taken in the
// middle of its shards re-points it like any other.
func TestGroupMemo(t *testing.T) {
	cfg := inplaceConfig()
	msg := testMessage(cfg.K*cfg.ShardSize*6+9, 17)
	frames := captureWire(t, cfg, msg)
	data := func(group uint32) (out []wireFrame) {
		for _, f := range frames {
			if f.typ == packet.TypeData && f.group == group {
				out = append(out, f)
			}
		}
		return out
	}

	t.Run("streaming release", func(t *testing.T) {
		r, err := NewReceiver(newSinkEnv(3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var groups []uint32
		r.OnGroup = func(g uint32, _ [][]byte) { groups = append(groups, g) }
		g0 := data(0)
		feed(r, g0[:cfg.K-1], nil)
		if r.lastG == nil || r.lastIdx != 0 || r.lastG != r.groups[0] {
			t.Fatalf("memo (%d, %p) is not group 0's entry %p", r.lastIdx, r.lastG, r.groups[0])
		}
		recycled := r.lastG
		feed(r, g0[cfg.K-1:], nil) // completes, delivers and releases group 0
		if r.lastG != nil || len(r.groups) != 0 || !r.released(0) {
			t.Fatalf("after the release: memo %p, %d groups held, released %v", r.lastG, len(r.groups), r.released(0))
		}
		feed(r, g0[:2], nil) // late duplicates
		if r.lastG != nil || len(r.groups) != 0 || len(groups) != 1 {
			t.Errorf("a late duplicate resurrected state: memo %p, %d groups held, OnGroup fired %d times", r.lastG, len(r.groups), len(groups))
		}
		feed(r, data(1)[:1], nil)
		if r.lastG != recycled || r.lastIdx != 1 || r.groups[1] != recycled {
			t.Errorf("group 1 did not take over the recycled state under its own index: memo (%d, %p)", r.lastIdx, r.lastG)
		}
		feed(r, frames, nil)
		if !r.Complete() || len(groups) != 7 {
			t.Errorf("complete %v after %d OnGroup calls, want true after 7", r.Complete(), len(groups))
		}
	})

	t.Run("grow re-points the memoised group", func(t *testing.T) {
		r, got := directReceiver(t, cfg)
		r.firstStep = 3 * cfg.ShardSize
		feed(r, data(0)[:5], nil) // shards 3 and 4 each buy a buffer step
		if len(r.msgBuf) <= r.firstStep || r.lastG != r.groups[0] {
			t.Fatalf("buffer %d bytes, memo %p vs entry %p: no step was taken under the memo", len(r.msgBuf), r.lastG, r.groups[0])
		}
		for j := 0; j < 5; j++ {
			if !r.inPlace(r.lastG.shards[j], r.msgBuf, 0, j) {
				t.Errorf("shard %d of the memoised group points outside the grown buffer", j)
			}
		}
		feed(r, frames, nil)
		if !bytes.Equal(*got, msg) || r.gathers != 0 {
			t.Errorf("delivered %d bytes (want %d) with %d gathers (want 0)", len(*got), len(msg), r.gathers)
		}
	})
}

// TestInPlaceGF16EndsInGather: the GF(2^16) codec allocates the shards it
// rebuilds, so exactly those are gathered; received ones are in place.
func TestInPlaceGF16EndsInGather(t *testing.T) {
	cfg := Config{Session: 7, K: 200, MaxParity: 100, ShardSize: 16}
	msg := testMessage(cfg.K*cfg.ShardSize*3+9, 14)
	frames := captureWire(t, cfg, msg)
	r, got := directReceiver(t, cfg)
	if r.zeroFill {
		t.Fatal("config did not select the GF(2^16) codec")
	}
	const lost = 3
	feed(r, frames, func(f wireFrame) bool {
		return f.typ == packet.TypeFin || f.typ == packet.TypeData && f.seq >= lost ||
			f.typ == packet.TypeParity && f.seq < cfg.K+lost
	})
	if !bytes.Equal(*got, msg) {
		t.Fatalf("delivered %d bytes, want the %d sent", len(*got), len(msg))
	}
	if want := lost * 4; r.gathers != want {
		t.Errorf("gather copied %d shards, want the %d rebuilt ones", r.gathers, want)
	}
}

// TestInPlaceAdaptiveNcEndsInGather: an adaptive session's per-group k
// makes offsets unknowable until every group is in, so every shard —
// received, rebuilt or NC-repaired — is pooled and gathered.
func TestInPlaceAdaptiveNcEndsInGather(t *testing.T) {
	h := newHarness(t, harnessOpts{
		r:   3,
		cfg: ncRungConfig(),
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.15, rng)
		},
		seed: 15,
	})
	msg := testMessage(8*64*30+3, 16)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	nc := 0
	for i, rc := range h.receivers {
		if rc.gathers != h.sender.SourcePackets() {
			t.Errorf("receiver %d gathered %d shards, want all %d", i, rc.gathers, h.sender.SourcePackets())
		}
		nc += rc.Stats().NcRepaired
	}
	if nc == 0 {
		t.Error("no NC repair was exercised")
	}
}

// TestForgedTotalBoundsAllocation: one forged packet declaring the largest
// acceptable transfer (Total = MaxGroups: 10 GiB here) buys the first
// commit step and the release bitset, not the declared size.
func TestForgedTotalBoundsAllocation(t *testing.T) {
	cfg := Config{Session: 7, K: 10, MaxParity: 2, ShardSize: 1024}
	r, _ := directReceiver(t, cfg)
	p := packet.Packet{Type: packet.TypeData, Session: 7, Group: 0, Seq: 0, K: 10,
		Total: uint32(r.cfg.MaxGroups), Payload: make([]byte, cfg.ShardSize)}
	wire := p.MustEncode()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.HandlePacket(wire)
	runtime.ReadMemStats(&after)
	if r.Stats().DataRx != 1 || len(r.msgBuf) != firstCommit {
		t.Fatalf("packet not accepted in place: DataRx %d, buffer %d", r.Stats().DataRx, len(r.msgBuf))
	}
	const bookkeeping = 1 << 20 // release bitset (128 KiB) and group state
	if grew := after.TotalAlloc - before.TotalAlloc; grew > firstCommit+bookkeeping {
		t.Errorf("one forged packet allocated %d bytes, want <= %d", grew, firstCommit+bookkeeping)
	}
	// Later steps are bought with accepted bytes only: a shard far beyond
	// the first step falls back to the pool instead of growing the buffer.
	p.Group, p.Seq = uint32(firstCommit/(10*1024))+5, 1
	r.HandlePacket(p.MustEncode())
	if r.Stats().DataRx != 2 || len(r.msgBuf) != firstCommit {
		t.Errorf("far shard: DataRx %d, buffer %d; want accepted without growth", r.Stats().DataRx, len(r.msgBuf))
	}
}

// TestHostileFinLengthRefused keeps the PR-9 hardening: a FIN whose msgLen
// exceeds what the held groups can produce is refused, and allocates
// nothing on its account — static and adaptive sessions alike.
func TestHostileFinLengthRefused(t *testing.T) {
	for _, cfg := range []Config{inplaceConfig(), ncRungConfig()} {
		cfg.Defaults()
		msg := testMessage(cfg.K*cfg.ShardSize*2, 17)
		var data, fins []wireFrame
		for _, f := range captureWire(t, cfg, msg) {
			if f.typ == packet.TypeData {
				data = append(data, f)
			} else if f.typ == packet.TypeFin {
				fins = append(fins, f)
			}
		}
		r, got := directReceiver(t, cfg)
		var pkt packet.Packet
		if err := packet.DecodeInto(&pkt, fins[0].raw); err != nil {
			t.Fatal(err)
		}
		forged := pkt
		forged.Payload = binary.BigEndian.AppendUint64(nil, 1<<40)
		r.HandlePacket(forged.MustEncode())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		feed(r, data, nil)
		runtime.ReadMemStats(&after)
		if *got != nil || r.Complete() {
			t.Fatalf("adaptive=%v: delivered under a forged 1 TiB msgLen", cfg.AdaptiveFEC)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("adaptive=%v: forged msgLen allocated %d bytes", cfg.AdaptiveFEC, grew)
		}
		feed(r, fins[:1], nil) // the honest FIN corrects the length
		if !bytes.Equal(*got, msg) {
			t.Errorf("adaptive=%v: not delivered after the honest FIN", cfg.AdaptiveFEC)
		}
	}
}

// TestReceiverPeakHeapStaticTransfer: an 8 MiB static transfer peaks at
// <= 1.25x the message on the receiver's heap — the message buffer plus
// group bookkeeping — where pooled shards plus a reassembly copy held > 2x.
func TestReceiverPeakHeapStaticTransfer(t *testing.T) {
	const msgLen = 8 << 20
	cfg := Config{Session: 7, K: 20, MaxParity: 5, ShardSize: 1024}
	total := (msgLen + 20*1024 - 1) / (20 * 1024)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	p := packet.Packet{Session: 7, K: 20, Total: uint32(total), Payload: make([]byte, 1024)}
	frame := make([]byte, packet.HeaderLen+1024)
	// The GF(2^8) kernel tables are process-wide and filled on first use:
	// build a codec and decode once before taking the baseline.
	warm, _ := directReceiver(t, cfg)
	for seq := uint16(1); seq <= 20; seq++ {
		p.Type, p.Seq = packet.TypeData, seq
		if seq == 20 {
			p.Type = packet.TypeParity
		}
		warm.HandlePacket(p.MustEncode())
	}
	if warm.Stats().Decodes != 1 {
		t.Fatal("warm-up did not decode")
	}
	warm = nil
	base := heap()
	r, got := directReceiver(t, cfg)
	peak := uint64(0)
	for g := 0; g < total; g++ {
		for i := 0; i < 20; i++ {
			p.Type, p.Group, p.Seq = packet.TypeData, uint32(g), uint16(i)
			if i == 3 { // one reconstruction per group
				p.Type, p.Seq = packet.TypeParity, 20
			}
			if _, err := p.MarshalTo(frame); err != nil {
				t.Fatal(err)
			}
			r.HandlePacket(frame)
		}
		if g%100 == 99 || g == total-1 {
			if h := heap(); h > peak {
				peak = h
			}
		}
	}
	fin := packet.Packet{Type: packet.TypeFin, Session: 7, K: 20, Total: uint32(total),
		Payload: binary.BigEndian.AppendUint64(nil, msgLen)}
	r.HandlePacket(fin.MustEncode())
	if len(*got) != msgLen {
		t.Fatalf("delivered %d bytes, want %d", len(*got), msgLen)
	}
	if h := heap(); h > peak {
		peak = h
	}
	if used := float64(peak-base) / msgLen; used > 1.25 {
		t.Errorf("receiver peak heap = %.2fx the message, want <= 1.25x", used)
	}
	runtime.KeepAlive(r)
}

// TestOnCompleteSteadyStateZeroAlloc pins the OnComplete-mode packet path
// next to the streaming pins: once the message buffer is committed and a
// group's bookkeeping exists (its first packet allocates the rxGroup and
// shard table, which this mode holds until delivery), HandlePacket
// allocates nothing — shards land in the message buffer, not in fresh
// buffers — through group completion and through a reconstruction.
func TestOnCompleteSteadyStateZeroAlloc(t *testing.T) {
	const (
		k      = 8
		shard  = 256
		groups = 400
	)
	for _, tc := range []struct {
		name   string
		decode bool
	}{
		{"all-data", false},
		{"reconstruct", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Session: 5, K: k, MaxParity: 2, ShardSize: shard, Delta: time.Millisecond}
			r, _ := directReceiver(t, cfg)
			frame := make([]byte, packet.HeaderLen+shard)
			payload := make([]byte, shard)
			send := func(g uint32, seq int) {
				p := packet.Packet{Type: packet.TypeData, Session: 5, Group: g,
					Seq: uint16(seq), K: k, Total: groups, Payload: payload}
				if seq >= k {
					p.Type = packet.TypeParity
				}
				if _, err := p.MarshalTo(frame); err != nil {
					t.Fatal(err)
				}
				r.HandlePacket(frame)
			}
			for g := uint32(0); g < groups; g++ {
				send(g, 1) // commits the buffer, creates every group's bookkeeping
			}
			next := uint32(0)
			allocs := testing.AllocsPerRun(groups-2, func() {
				for seq := 2; seq < k; seq++ {
					send(next, seq)
				}
				if tc.decode {
					send(next, k) // parity 0 stands in for lost data shard 0
				} else {
					send(next, 0)
				}
				next++
			})
			if allocs != 0 {
				t.Errorf("%s: %.1f allocs per group of HandlePacket calls, want 0", tc.name, allocs)
			}
			want := 0
			if tc.decode {
				want = int(next)
			}
			if r.Stats().Decodes != want {
				t.Errorf("%d decodes, want %d", r.Stats().Decodes, want)
			}
			if r.decoded != int(next) || r.gathers != 0 {
				t.Errorf("%d groups finished of %d fed, %d gathers", r.decoded, next, r.gathers)
			}
		})
	}
}

// TestForgedGroupBeyondTotalCannotComplete: a complete forged group with an
// index beyond Total inflates the finished-group count; delivery must still
// wait for every group in [0, Total), not hand out a buffer with a hole.
func TestForgedGroupBeyondTotalCannotComplete(t *testing.T) {
	cfg := inplaceConfig()
	msg := testMessage(cfg.K*cfg.ShardSize*4, 18)
	frames := captureWire(t, cfg, msg)
	r, got := directReceiver(t, cfg)
	feed(r, frames, func(f wireFrame) bool { return f.typ == packet.TypeData && f.group != 2 })
	for seq := 0; seq < cfg.K; seq++ {
		p := packet.Packet{Type: packet.TypeData, Session: cfg.Session, Group: 9, Seq: uint16(seq),
			K: uint16(cfg.K), Total: 4, Payload: make([]byte, cfg.ShardSize)}
		r.HandlePacket(p.MustEncode())
	}
	feed(r, frames, func(f wireFrame) bool { return f.typ == packet.TypeFin })
	if *got != nil || r.Complete() {
		t.Fatal("delivered with group 2 missing")
	}
	feed(r, frames, func(f wireFrame) bool { return f.typ == packet.TypeData && f.group == 2 })
	if !bytes.Equal(*got, msg) {
		t.Fatal("not delivered byte-exact once group 2 arrived")
	}
}
