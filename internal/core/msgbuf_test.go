package core

import (
	"bytes"
	"math/rand"
	"testing"

	"rmfec/internal/loss"
	"rmfec/internal/packet"
)

// zeroedMessage is testMessage with every third shard-sized block zeroed,
// so that a slot of the message buffer left unwritten reads as corrupt
// even where a zero-filled buffer would have hidden it.
func zeroedMessage(n, shardSize int, seed int64) []byte {
	msg := testMessage(n, seed)
	for off := 0; off < n; off += 3 * shardSize {
		clear(msg[off:min(off+shardSize, n)])
	}
	return msg
}

// TestPoisonedMessageBuffer is the write-once pin of the message buffer,
// which the allocator hands out without zero-filling it: with every new
// buffer filled with 0xA5 first, each receive mode must still deliver
// exactly the bytes sent, and the delivered slice must end at the
// message (capacity = length), so the never-written tail — commit slack,
// tail padding — cannot reach OnComplete. Every byte of the message is
// written by a shard copy, a reconstruction (RS over both fields, rect),
// an NC repair or the delivery gather; the cases below make each of them
// fill some slot.
func TestPoisonedMessageBuffer(t *testing.T) {
	fills := 0
	poisonMsgBuf = func(b []byte) {
		fills++
		for i := range b {
			b[i] = 0xA5
		}
	}
	t.Cleanup(func() { poisonMsgBuf = nil })
	check := func(t *testing.T, got, msg []byte) {
		t.Helper()
		if !bytes.Equal(got, msg) {
			t.Fatalf("delivered %d bytes, want the %d sent", len(got), len(msg))
		}
		if cap(got) != len(got) {
			t.Fatalf("delivered slice has capacity %d past its length %d", cap(got), len(got))
		}
	}

	// Fed by hand: static sessions over both fields, the buffer committed
	// at once or in small steps, groups created by the FIN before their
	// first shard. lost data shards per group are replaced by parities.
	static := inplaceConfig()
	wide := Config{Session: 7, K: 200, MaxParity: 100, ShardSize: 16}
	for _, tc := range []struct {
		name      string
		cfg       Config
		lost      int
		firstStep int
		finFirst  bool
		decodes   bool
		gathers   bool
	}{
		{"rs", static, 0, firstCommit, false, false, false},
		{"rs/lost2", static, 2, firstCommit, false, true, false},
		{"rs/lost2/stepped-commit", static, 2, 3 * static.ShardSize, false, true, true},
		{"rs/fin-created-groups", static, 3, firstCommit, true, true, false},
		{"gf16/lost3", wide, 3, firstCommit, false, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := zeroedMessage(tc.cfg.K*tc.cfg.ShardSize*20+9, tc.cfg.ShardSize, 31)
			frames := captureWire(t, tc.cfg, msg)
			r, got := directReceiver(t, tc.cfg)
			r.firstStep = tc.firstStep
			fin := func(f wireFrame) bool { return f.typ == packet.TypeFin }
			if tc.finFirst {
				if feed(r, frames, fin); liveGroups(r) == 0 {
					t.Fatal("the FIN created no group")
				}
			}
			feed(r, frames, func(f wireFrame) bool {
				switch f.typ {
				case packet.TypeData:
					return (f.seq+int(f.group))%tc.cfg.K >= tc.lost
				case packet.TypeParity:
					return f.seq-tc.cfg.K < tc.lost
				}
				return false
			})
			feed(r, frames, fin)
			check(t, *got, msg)
			if (r.Stats().Decodes > 0) != tc.decodes || (r.gathers > 0) != tc.gathers {
				t.Errorf("%d decodes, %d gathered shards; want >0: %v, %v", r.Stats().Decodes, r.gathers, tc.decodes, tc.gathers)
			}
		})
	}

	// Fed by hand: an adaptive session that re-cuts (rect rungs, RS, NC
	// repair), its shard-count announcement absent, too small or too large
	// (the gather fills what could not be placed, or the buffer is larger
	// than the message), a group withheld until after the FIN, or the
	// buffer committed in small steps.
	t.Run("ladder", func(t *testing.T) {
		w := captureLadderWalk(t)
		cfg := portfolioConfig(GateForce)
		cfg.NCRepair = true
		const held = 9
		for _, tc := range []struct {
			name      string
			announce  func(n uint32) uint32
			held      int
			firstStep int
		}{
			{"as-sent", nil, -1, 0},
			{"stepped-commit", nil, -1, 3 * cfg.ShardSize},
			{"group-withheld-until-the-fin", nil, held, 0},
			{"unannounced", func(uint32) uint32 { return 0 }, -1, 0},
			{"announced-too-small", func(n uint32) uint32 { return n / 2 }, -1, 0},
			{"announced-too-large", func(n uint32) uint32 { return 1000 * n }, -1, 0},
		} {
			t.Run(tc.name, func(t *testing.T) {
				r, got := directReceiver(t, cfg)
				if r.firstStep = tc.firstStep; r.firstStep == 0 {
					r.firstStep = 4 * len(w.msg)
				}
				frames := reannounce(w.frames, tc.announce)
				isHeld := func(f wireFrame) bool { return f.typ != packet.TypeFin && int(f.group) == tc.held }
				feed(r, frames, func(f wireFrame) bool { return !isHeld(f) })
				feed(r, frames, isHeld)
				check(t, *got, w.msg)
			})
		}
	})

	// Over the simulated network with Bernoulli loss on every receiver:
	// static RS, a rect rung, an adaptive NC-repair rung and N2.
	bernoulli := func(p float64) func(rng *rand.Rand) loss.Process {
		return func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(p, rng) }
	}
	for _, tc := range []struct {
		name string
		o    harnessOpts
		used func(st ReceiverStats) int // the recovery path the case must exercise
	}{
		{"lossy/rs", harnessOpts{r: 4, cfg: Config{Session: 7, K: 8, MaxParity: 4, ShardSize: 64}, mkLoss: bernoulli(0.1), seed: 41},
			func(st ReceiverStats) int { return st.Decodes }},
		{"lossy/rect", harnessOpts{r: 3, cfg: rectRungConfig(GateForce), mkLoss: bernoulli(0.04), seed: 42},
			func(st ReceiverStats) int { return st.Decodes }},
		{"lossy/adaptive-nc", harnessOpts{r: 3, cfg: ncRungConfig(), mkLoss: bernoulli(0.15), seed: 43},
			func(st ReceiverStats) int { return st.NcRepaired }},
		{"lossy/n2", harnessOpts{r: 4, cfg: baseConfig(), mkLoss: bernoulli(0.1), seed: 44, n2: true},
			func(st ReceiverStats) int { return st.DataRx }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.o)
			msg := zeroedMessage(20*64*30+17, 64, 45)
			before := fills
			h.run(t, msg)
			used := 0
			for i, got := range h.delivered {
				if got == nil {
					t.Fatalf("receiver %d never completed", i)
				}
				check(t, got, msg)
				used += tc.used(h.receivers[i].Stats())
			}
			if fills-before < len(h.receivers) || used == 0 {
				t.Errorf("%d buffers poisoned for %d receivers, recovery path used %d times: the case exercised too little",
					fills-before, len(h.receivers), used)
			}
		})
	}
}
