package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rmfec/internal/adapt"
	"rmfec/internal/loss"
	"rmfec/internal/packet"
	"rmfec/internal/simnet"
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
	env.deliver = func(b []byte) { frames = append(frames, captureFrame(t, b)) }
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

func captureFrame(t testing.TB, b []byte) wireFrame {
	var pkt packet.Packet
	if err := packet.DecodeInto(&pkt, b); err != nil {
		t.Fatalf("undecodable frame: %v", err)
	}
	return wireFrame{pkt.Type, pkt.Group, int(pkt.Seq), append([]byte(nil), b...)}
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
			if !r.inPlace(r.lastG.shards[j], r.msgBuf, r.lastG, j) {
				t.Errorf("shard %d of the memoised group points outside the grown buffer", j)
			}
		}
		feed(r, frames, nil)
		if !bytes.Equal(*got, msg) || r.gathers != 0 {
			t.Errorf("delivered %d bytes (want %d) with %d gathers (want 0)", len(*got), len(msg), r.gathers)
		}
	})
}

// looseHeld counts, shard by shard, the data shards r holds outside its
// message buffer: what r.loose must equal for the delivery gather to be
// skipped safely.
func looseHeld(r *Receiver) int {
	n := 0
	for _, g := range r.groups {
		for j := 0; j < g.K; j++ {
			if s := g.shards[j]; s != nil && !r.inPlace(s, r.msgBuf, g, j) {
				n++
			}
		}
	}
	return n
}

// TestInPlaceGF16NoGather: the GF(2^16) codec rebuilds into the slots it is
// handed like the other two, so rebuilt shards are in place as received
// ones are — and the loose count, which lets delivery skip its gather walk,
// knows it (a codec that allocated its own output would leave loose short
// of the shards the buffer never saw). Only the tail group's 199
// all-padding shards, past the announced shard count, are pooled, and the
// delivery gather, which stops at the message's end, copies none of them.
func TestInPlaceGF16NoGather(t *testing.T) {
	cfg := Config{Session: 7, K: 200, MaxParity: 100, ShardSize: 16}
	msg := testMessage(cfg.K*cfg.ShardSize*3+9, 14)
	frames := captureWire(t, cfg, msg)
	r, got := directReceiver(t, cfg)
	if c, err := r.rx.codecs.get(cfg.K, cfg.MaxParity, packet.CodecRS, 0); err != nil {
		t.Fatal(err)
	} else if _, ok := c.(gf16Codec); !ok {
		t.Fatal("config did not select the GF(2^16) codec")
	}
	const lost, padding = 3, 199
	feed(r, frames, func(f wireFrame) bool {
		return f.typ == packet.TypeData && f.seq >= lost || f.typ == packet.TypeParity && f.seq < cfg.K+lost
	})
	if r.Stats().Decodes != 4 || r.loose != padding || looseHeld(r) != padding {
		t.Fatalf("%d decodes (want 4), loose count %d, %d shards actually outside the buffer (want %d, %d)",
			r.Stats().Decodes, r.loose, looseHeld(r), padding, padding)
	}
	feed(r, frames, func(f wireFrame) bool { return f.typ == packet.TypeFin })
	if !bytes.Equal(*got, msg) {
		t.Fatalf("delivered %d bytes, want the %d sent", len(*got), len(msg))
	}
	if r.gathers != 0 {
		t.Errorf("gather copied %d shards, want 0", r.gathers)
	}
}

// TestInPlaceAdaptiveNc: an adaptive session places like a static one. Its
// TG headers announce the message's shard count and each group's base is
// known once every earlier group's k is, so received, rebuilt and
// NC-repaired shards land in the message buffer; the gather is left only
// the shards that came in while their group had no base yet.
func TestInPlaceAdaptiveNc(t *testing.T) {
	h := newHarness(t, harnessOpts{
		r:   3,
		cfg: ncRungConfig(),
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.15, rng)
		},
		seed: 15,
	})
	early := make([]int, len(h.receivers)) // data shards pooled for want of a base
	for i, rc := range h.receivers {
		i, rc := i, rc
		rc.env.(*simnet.Node).SetHandler(func(b []byte) {
			before := rc.loose
			rc.HandlePacket(b)
			var pkt packet.Packet
			if err := packet.DecodeInto(&pkt, b); err != nil {
				t.Fatalf("undecodable frame: %v", err)
			}
			if g := rc.groups[pkt.Group]; g != nil && g.base < 0 {
				early[i] += rc.loose - before
			}
		})
	}
	msg := testMessage(8*64*30+3, 16)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	nc, decodes := 0, 0
	for i, rc := range h.receivers {
		if rc.gathers > early[i] {
			t.Errorf("receiver %d gathered %d shards, want <= the %d that arrived before their base was known",
				i, rc.gathers, early[i])
		}
		nc += rc.Stats().NcRepaired
		decodes += rc.Stats().Decodes
	}
	if nc == 0 || decodes == 0 {
		t.Errorf("%d NC repairs and %d decodes: the session exercised too little", nc, decodes)
	}
}

// ladderWalk is a captured adaptive session that re-cuts on the way: the
// sender's side of the mode matrix's ladder-nc cell (rect rungs, the switch
// to RS, NC repair, k walking down the ladder from 32 to 4 under the loss
// shift) — every frame it multicast, repairs included, in order.
type ladderWalk struct {
	msg    []byte
	frames []wireFrame
	ks     []int // data shards per group
}

func captureLadderWalk(t testing.TB) ladderWalk {
	t.Helper()
	cfg := portfolioConfig(GateForce)
	cfg.NCRepair = true
	var w ladderWalk
	h, msg := runMatrixChannel(t, cfg, func(b []byte) { w.frames = append(w.frames, captureFrame(t, b)) })
	w.msg = msg
	seen := map[int]bool{}
	for _, g := range h.sender.GroupTrace() {
		w.ks = append(w.ks, g.K)
		seen[g.K] = true
	}
	if !seen[32] || !seen[24] || !seen[16] || !seen[4] {
		t.Fatalf("the session did not walk the ladder: group sizes %v", w.ks)
	}
	return w
}

// slotsFrom counts the message shards (padding excluded) of groups from on.
func (w ladderWalk) slotsFrom(from, shardSize int) int {
	need := (len(w.msg) + shardSize - 1) / shardSize
	base, n := 0, 0
	for g, k := range w.ks {
		if g >= from {
			n += max(0, min(base+k, need)-base)
		}
		base += k
	}
	return n
}

// TestInPlaceAdaptivePlacement drives the placement rule over a session
// that re-cuts (bases are running sums of differing k): as sent nothing is
// gathered, the buffer committed at once or in many x4 steps; a group
// withheld whole stalls the base frontier, so exactly the later groups'
// shards are pooled and gathered; and a wrong announcement — absent, too
// small, too large — costs copies or buffer slack, never bytes.
func TestInPlaceAdaptivePlacement(t *testing.T) {
	w := captureLadderWalk(t)
	cfg := portfolioConfig(GateForce)
	cfg.NCRepair = true
	const ss, held = 64, 9
	need := w.slotsFrom(0, ss)
	for _, tc := range []struct {
		name      string
		announce  func(n uint32) uint32 // rewrites every TG header's Total; nil = as sent
		held      int                   // group withheld until after the FIN; -1 = none
		firstStep int                   // 0 = 4x the message: one step holds any announcement honoured
		gathers   int
	}{
		{"as sent", nil, -1, 0, 0},
		{"stepped commit", nil, -1, 3 * ss, 0}, // every x4 step re-points the shards in place
		{"group withheld until the FIN", nil, held, 0, w.slotsFrom(held+1, ss)},
		{"unannounced", func(uint32) uint32 { return 0 }, -1, 0, need},
		{"announced too small", func(n uint32) uint32 { return n / 2 }, -1, 0, need - need/2},
		{"announced too large", func(n uint32) uint32 { return 1000 * n }, -1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, got := directReceiver(t, cfg)
			if r.firstStep = tc.firstStep; r.firstStep == 0 {
				r.firstStep = 4 * len(w.msg)
			}
			frames := w.frames
			if tc.announce != nil {
				frames = make([]wireFrame, len(w.frames))
				for i, f := range w.frames {
					if f.typ != packet.TypeFin {
						f.raw = append([]byte(nil), f.raw...)
						total := f.raw[20:24] // the shard-count announcement
						binary.BigEndian.PutUint32(total, tc.announce(binary.BigEndian.Uint32(total)))
					}
					frames[i] = f
				}
			}
			isHeld := func(f wireFrame) bool { return f.typ != packet.TypeFin && int(f.group) == tc.held }
			feed(r, frames, func(f wireFrame) bool { return f.typ != packet.TypeFin && !isHeld(f) })
			if r.loose != looseHeld(r) {
				t.Errorf("loose count %d, but %d data shards are outside the buffer", r.loose, looseHeld(r))
			}
			feed(r, frames, func(f wireFrame) bool { return f.typ == packet.TypeFin })
			if tc.held >= 0 {
				if r.Complete() || int(r.frontG) != tc.held {
					t.Fatalf("complete %v with the base frontier at group %d; want it stalled at the withheld group %d",
						r.Complete(), r.frontG, tc.held)
				}
				feed(r, frames, isHeld)
			}
			if !bytes.Equal(*got, w.msg) {
				t.Fatalf("delivered %d bytes, want the %d sent", len(*got), len(w.msg))
			}
			if r.gathers != tc.gathers {
				t.Errorf("gather copied %d shards, want %d", r.gathers, tc.gathers)
			}
			if cap(*got) > 4*len(w.msg) {
				t.Errorf("delivered slice has capacity %d, want <= the largest first commit step, %d", cap(*got), 4*len(w.msg))
			}
			base := 0
			for i, k := range w.ks {
				if g := r.groups[uint32(i)]; g.K != k || g.base != base {
					t.Fatalf("group %d: k %d at base %d, want k %d at base %d", i, g.K, g.base, k, base)
				}
				base += k
			}
		})
	}
}

// TestForgedTotalBoundsAllocation: one forged packet declaring the largest
// acceptable transfer (an announcement of MaxGroups x the largest k shards:
// 10 GiB here on the static session, 32 GiB at the ladder's k = 32) buys
// the first commit step and the release bitset, not the declared size.
func TestForgedTotalBoundsAllocation(t *testing.T) {
	static := Config{Session: 7, K: 10, MaxParity: 2, ShardSize: 1024}
	ladder := adaptiveConfig()
	ladder.ShardSize = 1024
	for _, tc := range []struct {
		name string
		cfg  Config
		p    packet.Packet
	}{
		{"static", static, packet.Packet{K: 10, H: 2, Total: 10 << 20}},
		{"adaptive", ladder, packet.Packet{K: 32, H: 4, Total: 32 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := directReceiver(t, tc.cfg)
			p := tc.p
			p.Type, p.Session, p.Payload = packet.TypeData, 7, make([]byte, 1024)
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
		})
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

// receiverPeakHeap feeds one OnComplete receiver a whole transfer cut as
// groups says (all-zero shards: a codeword of every linear code), one
// reconstruction per group, and returns the peak of the heap it held over
// the message length.
func receiverPeakHeap(t *testing.T, cfg Config, groups []adapt.Params, msgLen int) float64 {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	ss := cfg.ShardSize
	p := packet.Packet{Session: cfg.Session, Total: uint32((msgLen + ss - 1) / ss), Payload: make([]byte, ss)}
	frame := make([]byte, packet.HeaderLen+ss)
	sendGroup := func(r *Receiver, g int) {
		p.Group, p.K, p.H = uint32(g), uint16(groups[g].K), uint16(groups[g].H)
		for i := 0; i < groups[g].K; i++ {
			p.Type, p.Seq = packet.TypeData, uint16(i)
			if i == 3 { // one reconstruction per group
				p.Type, p.Seq = packet.TypeParity, p.K
			}
			n, err := p.MarshalTo(frame)
			if err != nil {
				t.Fatal(err)
			}
			r.HandlePacket(frame[:n])
		}
	}
	// The GF(2^8) kernel tables are process-wide and filled on first use:
	// decode once at every working point before taking the baseline.
	warm, _ := directReceiver(t, cfg)
	for g := range groups {
		if g == 0 || groups[g] != groups[g-1] {
			sendGroup(warm, g)
		}
	}
	if warm.Stats().Decodes == 0 {
		t.Fatal("warm-up did not decode")
	}
	warm = nil
	base := heap()
	r, got := directReceiver(t, cfg)
	peak := uint64(0)
	for g := range groups {
		sendGroup(r, g)
		if g%100 == 99 || g == len(groups)-1 {
			if h := heap(); h > peak {
				peak = h
			}
		}
	}
	fin := packet.Packet{Type: packet.TypeFin, Session: cfg.Session, K: uint16(cfg.K), H: uint16(cfg.MaxParity),
		Total: uint32(len(groups)), Payload: binary.BigEndian.AppendUint64(nil, uint64(msgLen))}
	r.HandlePacket(fin.MustEncode())
	if len(*got) != msgLen {
		t.Fatalf("delivered %d bytes, want %d", len(*got), msgLen)
	}
	if r.Stats().Decodes != len(groups) || r.gathers != 0 {
		t.Errorf("%d decodes over %d groups, %d gathers; want one decode per group and no gather", r.Stats().Decodes, len(groups), r.gathers)
	}
	if h := heap(); h > peak {
		peak = h
	}
	runtime.KeepAlive(r)
	return float64(peak-base) / float64(msgLen)
}

// TestReceiverPeakHeapStaticTransfer: an 8 MiB static transfer peaks at
// <= 1.25x the message on the receiver's heap — the message buffer plus
// group bookkeeping — where pooled shards plus a reassembly copy held > 2x.
func TestReceiverPeakHeapStaticTransfer(t *testing.T) {
	const msgLen = 8 << 20
	cfg := Config{Session: 7, K: 20, MaxParity: 5, ShardSize: 1024}
	groups := make([]adapt.Params, (msgLen+20*1024-1)/(20*1024))
	for g := range groups {
		groups[g] = adapt.Params{K: 20, H: 5}
	}
	if used := receiverPeakHeap(t, cfg, groups, msgLen); used > 1.25 {
		t.Errorf("receiver peak heap = %.2fx the message, want <= 1.25x", used)
	}
}

// TestReceiverPeakHeapAdaptiveTransfer holds an adaptive session to the
// static bound: 8 MiB sent a quarter each at the ladder's k = 32, 24, 16
// and 4 rungs peaks at <= 1.25x the message, where every shard pooled plus
// the reassembly copy held > 2x.
func TestReceiverPeakHeapAdaptiveTransfer(t *testing.T) {
	const msgLen = 8 << 20
	cfg := adaptiveConfig()
	cfg.ShardSize = 1024
	var groups []adapt.Params
	for cut, shards := 0, msgLen/1024; cut < shards; {
		rung := adapt.DefaultLadder[[]int{0, 1, 2, 5}[4*cut/shards]].P
		groups = append(groups, adapt.Params{K: rung.K, H: rung.H})
		cut += rung.K
	}
	if used := receiverPeakHeap(t, cfg, groups, msgLen); used > 1.25 {
		t.Errorf("receiver peak heap = %.2fx the message, want <= 1.25x", used)
	}
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
	static := Config{Session: 5, K: k, MaxParity: 2, ShardSize: shard, Delta: time.Millisecond}
	ladder := ncRungConfig() // one rung, (8, 2)
	ladder.Session, ladder.ShardSize = 5, shard
	for _, tc := range []struct {
		name   string
		cfg    Config
		header packet.Packet
		decode bool
	}{
		{"all-data", static, packet.Packet{K: k, H: 2, Total: groups * k}, false},
		{"reconstruct", static, packet.Packet{K: k, H: 2, Total: groups * k}, true},
		{"adaptive/all-data", ladder, packet.Packet{K: k, H: 2, Total: groups * k}, false},
		{"adaptive/reconstruct", ladder, packet.Packet{K: k, H: 2, Total: groups * k}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, _ := directReceiver(t, tc.cfg)
			frame := make([]byte, packet.HeaderLen+shard)
			payload := make([]byte, shard)
			send := func(g uint32, seq int) {
				p := tc.header
				p.Type, p.Session, p.Group, p.Seq, p.Payload = packet.TypeData, 5, g, uint16(seq), payload
				if seq >= k {
					p.Type = packet.TypeParity
				}
				n, err := p.MarshalTo(frame)
				if err != nil {
					t.Fatal(err)
				}
				r.HandlePacket(frame[:n])
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
			K: uint16(cfg.K), H: uint16(cfg.MaxParity), Total: uint32(4 * cfg.K), Payload: make([]byte, cfg.ShardSize)}
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
