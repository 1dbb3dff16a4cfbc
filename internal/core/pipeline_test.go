package core

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"

	"rmfec/internal/loss"
	"rmfec/internal/metrics"
	"rmfec/internal/packet"
)

// sinkEnv is the cheapest possible Env: it discards frames, keeps exactly
// one pending timer (the sender's pump keeps at most one outstanding), and
// lets the test fire it manually. Every method is allocation-free, so
// AllocsPerRun measurements over engine steps see only the engine.
type sinkEnv struct {
	now     time.Duration
	pending func()
	rng     *rand.Rand
	batches int
}

func newSinkEnv(seed int64) *sinkEnv { return &sinkEnv{rng: rand.New(rand.NewSource(seed))} }

func (e *sinkEnv) Now() time.Duration                     { return e.now }
func (e *sinkEnv) Rand() *rand.Rand                       { return e.rng }
func (e *sinkEnv) Multicast(b []byte) error               { return nil }
func (e *sinkEnv) MulticastControl(b []byte) error        { return nil }
func (e *sinkEnv) MulticastBatch(f [][]byte) (int, error) { e.batches++; return len(f), nil }
func (e *sinkEnv) After(d time.Duration, fn func()) (cancel func()) {
	e.now += d
	e.pending = fn
	return nil
}

// step fires the pending timer; returns false when the engine went idle.
func (e *sinkEnv) step() bool {
	fn := e.pending
	if fn == nil {
		return false
	}
	e.pending = nil
	fn()
	return true
}

// TestSenderSteadyStateZeroAlloc pins the transmit path's allocation
// behaviour at the ISSUE's benchmark operating point (k=20, h=5, 1 KiB
// shards, proactive 0): once the frame pool and queue are warm, pumping
// packets allocates nothing — on the serial reference path and on the
// batched pipeline path alike.
func TestSenderSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		pl   PipelineConfig
	}{
		{"serial", PipelineConfig{}},
		{"batched", PipelineConfig{Depth: 8, Workers: 2, Batch: 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newSinkEnv(1)
			cfg := Config{Session: 3, K: 20, MaxParity: 5, Proactive: 0,
				ShardSize: 1024, Delta: time.Millisecond, Pipeline: tc.pl}
			s, err := NewSender(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// 400 TGs: enough runway that warmup plus the measured steps
			// never reach the FIN tail.
			if err := s.Send(make([]byte, 400*20*1024)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if !env.step() {
					t.Fatal("sender went idle during warmup")
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if !env.step() {
					t.Fatal("sender went idle during measurement")
				}
			})
			if allocs != 0 {
				t.Errorf("%s steady-state pump: %.1f allocs/op, want 0", tc.name, allocs)
			}
			if tc.pl.Batch > 1 && env.batches == 0 {
				t.Error("batched sender never used MulticastBatch")
			}
		})
	}
}

// TestReceiverSteadyStateZeroAlloc pins the streaming receiver's packet
// path: decode-in-place arrival, pooled shard copies and per-group release
// (OnComplete unset) make processing a whole group allocation-free — both
// when all k data shards arrive and when a fixed loss pattern forces a
// Reed-Solomon reconstruction every group (the codec's scratch free-list
// keeps even that path clean).
func TestReceiverSteadyStateZeroAlloc(t *testing.T) {
	const (
		k     = 8
		shard = 256
		total = 32768 // presizes the release bitset well past the run
	)
	for _, tc := range []struct {
		name   string
		decode bool
	}{
		{"all-data", false},
		{"reconstruct", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newSinkEnv(2)
			cfg := Config{Session: 5, K: k, MaxParity: 2, ShardSize: shard,
				Delta: time.Millisecond}
			r, err := NewReceiver(env, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			groups := 0
			r.OnGroup = func(g uint32, shards [][]byte) { groups++ }

			frame := make([]byte, packet.HeaderLen+shard)
			payload := make([]byte, shard)
			next := uint32(0)
			feedGroup := func() {
				g := next
				next++
				for i := 0; i < k; i++ {
					seq, typ := uint16(i), packet.TypeData
					if tc.decode && i == 0 {
						// Fixed pattern: data shard 0 lost, parity 0 takes
						// its place — the same pattern every group.
						seq, typ = uint16(k), packet.TypeParity
					}
					p := packet.Packet{Type: typ, Session: 5, Group: g,
						Seq: seq, K: k, H: 2, Total: total * k, Payload: payload}
					if _, err := p.MarshalTo(frame); err != nil {
						t.Fatal(err)
					}
					r.HandlePacket(frame)
				}
			}
			for i := 0; i < 50; i++ {
				feedGroup()
			}
			if groups != 50 {
				t.Fatalf("warmup delivered %d groups, want 50", groups)
			}
			allocs := testing.AllocsPerRun(200, feedGroup)
			if allocs != 0 {
				t.Errorf("%s steady-state group: %.1f allocs/op, want 0", tc.name, allocs)
			}
			if tc.decode && r.Stats().Decodes < 200 {
				t.Errorf("only %d decodes; the reconstruct path was not exercised", r.Stats().Decodes)
			}
			if len(r.groups) != 0 {
				t.Errorf("%d groups still resident after streaming release", len(r.groups))
			}
		})
	}
}

// TestNakServiceSteadyStateZeroAlloc pins the sender's NAK service path:
// each NAK — decoded by HandlePacket, served by serviceRound as a parity
// encoded straight into its frame, or, once a group's parities are spent,
// as a rotating data resend or, with NC repair on, recorded by
// recordLossMap and served as XOR combos — and the pump steps that put its
// repairs and their POLL on the wire allocate nothing. The NAKs are retries (Seq noEcho), which the service
// rule serves in full every time.
func TestNakServiceSteadyStateZeroAlloc(t *testing.T) {
	static := Config{Session: 3, K: 8, MaxParity: 2, ShardSize: 64, Delta: time.Millisecond}
	// 1 KiB shards and 200 parities: the 111 single-parity runs below
	// never reach exhaustion, so every NAK is served a fresh parity.
	parity := Config{Session: 3, K: 8, MaxParity: 200, ShardSize: 1024, Delta: time.Millisecond}
	for _, tc := range []struct {
		name  string
		cfg   Config
		mask  uint64 // NAK loss map; 0 sends none
		count uint16 // the NAK's deficit: repairs per round
	}{
		{"resend", static, 0, 2},
		{"nc", ncRungConfig(), 1<<5 | 1<<2, 2},
		{"parity", parity, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newSinkEnv(4)
			s, err := NewSender(env, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Send(make([]byte, 400*8*64)); err != nil {
				t.Fatal(err)
			}
			env.step() // group 0 is streamed
			nak := packet.Packet{Type: packet.TypeNak, Session: tc.cfg.Session, Seq: noEcho, K: 8, Count: tc.count}
			if tc.mask != 0 {
				var m [packet.NcMaskLen]byte
				binary.BigEndian.PutUint64(m[:], tc.mask)
				nak.Payload = m[:]
			}
			wire := nak.MustEncode()
			serve := func() {
				s.HandlePacket(wire)
				for i := 0; i <= int(tc.count); i++ { // the repairs and their POLL
					if !env.step() {
						t.Fatal("sender went idle")
					}
				}
			}
			for i := 0; i < 10; i++ {
				serve()
			}
			served := s.Stats().NakServed
			if allocs := testing.AllocsPerRun(100, serve); allocs != 0 {
				t.Errorf("%s NAK service: %.1f allocs/NAK, want 0", tc.name, allocs)
			}
			if got := s.Stats().NakServed - served; got != 101 {
				t.Errorf("%d of 101 NAKs served", got)
			}
			if tc.mask != 0 && s.Stats().NcRounds < 101 {
				t.Errorf("only %d NC rounds; the combo path was not exercised", s.Stats().NcRounds)
			}
			if st := s.Stats(); tc.cfg.MaxParity == 200 && st.ParityTx != 111 {
				t.Errorf("%d parities sent, want one per NAK (111)", st.ParityTx)
			}
		})
	}
}

// TestPollArmedNakAllocs pins the NAK a POLL arms, end to end: the POLL
// through Receiver.HandlePacket, and the slot timer's fireNak sending the
// NAK through RxRules.Nak. Each POLL costs exactly two allocations, the
// timer closures (armNak's slot closure and fireNak's backoff closure);
// anything else on the path moves the count.
func TestPollArmedNakAllocs(t *testing.T) {
	env := newSinkEnv(5)
	cfg := Config{Session: 5, K: 8, MaxParity: 2, ShardSize: 64, Delta: time.Millisecond}
	r, err := NewReceiver(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	frame := func(typ packet.Type, seq uint16, payload []byte) []byte {
		p := packet.Packet{Type: typ, Session: 5, Seq: seq, K: 8, H: 2, Total: 8 * 100, Payload: payload}
		return p.MustEncode()
	}
	shard := make([]byte, 64)
	for i := uint16(1); i < 8; i++ { // seq 0 lost: a deficit of 1
		r.HandlePacket(frame(packet.TypeData, i, shard))
	}
	poll := frame(packet.TypePoll, 0, nil)
	nak := func() {
		r.HandlePacket(poll)
		if !env.step() {
			t.Fatal("the POLL armed no NAK")
		}
	}
	nak()
	sent := r.Stats().NakTx
	if allocs := testing.AllocsPerRun(100, nak); allocs != 2 {
		t.Errorf("POLL-armed NAK: %.1f allocs/POLL, want exactly 2 (the slot and backoff timer closures)", allocs)
	}
	if got := r.Stats().NakTx - sent; got != 101 {
		t.Errorf("%d NAKs sent for 101 POLLs", got)
	}
}

// batchLoopEnv extends the deterministic loopEnv with core.BatchEnv so
// transcript tests cover the MulticastBatch ordering too.
type batchLoopEnv struct{ *loopEnv }

func (e batchLoopEnv) MulticastBatch(frames [][]byte) (int, error) {
	for i, f := range frames {
		if err := e.Multicast(f); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

// TestPipelinedTranscriptMatchesSerial is the PR's equivalence gate: under
// zero loss, a pipelined sender (any depth, batched or not, BatchEnv or
// per-frame fallback) must put byte-for-byte the same frame sequence on
// the wire as the serial reference path — encode-ahead computes the same
// generator rows the serial path would, and batching changes pacing, not
// content or order.
func TestPipelinedTranscriptMatchesSerial(t *testing.T) {
	for _, base := range []struct {
		name string
		cfg  Config
		msg  int
	}{
		{"small", transcriptCfgSmall(), 100},
		{"wide", transcriptCfgWide(), 10000},
	} {
		serial := senderTranscript(t, base.cfg, base.msg)

		pipelined := base.cfg
		pipelined.Pipeline = PipelineConfig{Depth: 8, Workers: 3, Batch: 1}
		if got := senderTranscript(t, pipelined, base.msg); got != serial {
			t.Errorf("%s: depth=8 batch=1 transcript differs from serial:\n got %s\nwant %s",
				base.name, got, serial)
		}

		batched := base.cfg
		batched.Pipeline = PipelineConfig{Depth: 4, Workers: 2, Batch: 16}
		if got := senderTranscript(t, batched, base.msg); got != serial {
			t.Errorf("%s: batched fallback transcript differs from serial:\n got %s\nwant %s",
				base.name, got, serial)
		}

		// Same batched config through a BatchEnv-capable transport.
		env := newLoopEnv(1)
		s, err := NewSender(batchLoopEnv{env}, batched)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Send(transcriptMsg(base.msg)); err != nil {
			t.Fatal(err)
		}
		env.run()
		s.Close()
		if got := env.hash.sum(); got != serial {
			t.Errorf("%s: BatchEnv transcript differs from serial:\n got %s\nwant %s",
				base.name, got, serial)
		}
	}
}

// TestPipelinedLossyTransfer runs the full pipelined stack — encode-ahead
// pool, batching, frame recycling — over simnet with per-receiver loss and
// checks correctness is untouched: every receiver gets the exact message.
// With `make race` covering this package, it doubles as the race proof for
// the engine/worker-pool seam.
func TestPipelinedLossyTransfer(t *testing.T) {
	cfg := Config{Session: 7, K: 8, MaxParity: 16, Proactive: 2, ShardSize: 64,
		Pipeline: PipelineConfig{Depth: 4, Workers: 2, Batch: 8}}
	h := newHarness(t, harnessOpts{
		r:   5,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.05, rng)
		},
		seed: 41,
	})
	msg := testMessage(40*8*64+17, 42)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	ps := h.sender.PipelineStats()
	if ps.EncodeHits+ps.EncodeMisses != uint64(h.sender.Groups()) {
		t.Errorf("encode-ahead collected %d+%d groups, sender streamed %d",
			ps.EncodeHits, ps.EncodeMisses, h.sender.Groups())
	}
	if ps.Batches == 0 || ps.BatchedPkts == 0 {
		t.Error("pipelined sender recorded no batched transmissions")
	}
	h.sender.Close()
}

// flakyEnv injects per-call send failures on the serial transmit path.
type flakyEnv struct {
	*sinkEnv
	every  int // fail every Nth Multicast/MulticastControl
	calls  int
	failed int
}

func (e *flakyEnv) send() error {
	e.calls++
	if e.every > 0 && e.calls%e.every == 0 {
		e.failed++
		return errors.New("flaky: injected send failure")
	}
	return nil
}
func (e *flakyEnv) Multicast(b []byte) error        { return e.send() }
func (e *flakyEnv) MulticastControl(b []byte) error { return e.send() }

// partialBatchEnv injects partial batch sends: every MulticastBatch call
// loses its trailing `drop` frames (all of them for short batches).
type partialBatchEnv struct {
	*sinkEnv
	drop   int
	failed int
}

func (e *partialBatchEnv) MulticastBatch(f [][]byte) (int, error) {
	lost := e.drop
	if lost > len(f) {
		lost = len(f)
	}
	e.failed += lost
	if lost == 0 {
		return len(f), nil
	}
	return len(f) - lost, errors.New("partial: injected batch failure")
}

// TestSenderTxErrorAccounting pins the send-error contract: a failed
// frame is never retried (datagrams are best-effort; the NAK path repairs
// gaps) but every failure is counted in SenderStats.TxErrors and the
// np_sender_tx_errors_total counter — on the serial path, and frame-exactly
// across partial batch sends on the batched path.
func TestSenderTxErrorAccounting(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		env := &flakyEnv{sinkEnv: newSinkEnv(3), every: 3}
		reg := metrics.NewRegistry()
		cfg := Config{Session: 9, K: 4, MaxParity: 2, Proactive: 1,
			ShardSize: 32, Delta: time.Millisecond, Metrics: reg}
		s, err := NewSender(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Send(make([]byte, 10*4*32)); err != nil {
			t.Fatal(err)
		}
		for env.step() {
		}
		if env.failed == 0 {
			t.Fatal("no failures injected; test is vacuous")
		}
		if got := s.Stats().TxErrors; got != env.failed {
			t.Errorf("Stats().TxErrors = %d, env failed %d sends", got, env.failed)
		}
		if got := s.m.txErrors.Value(); got != uint64(env.failed) {
			t.Errorf("np_sender_tx_errors_total = %d, want %d", got, env.failed)
		}
	})
	t.Run("batched-partial", func(t *testing.T) {
		env := &partialBatchEnv{sinkEnv: newSinkEnv(4), drop: 2}
		reg := metrics.NewRegistry()
		cfg := Config{Session: 9, K: 8, MaxParity: 4, Proactive: 0,
			ShardSize: 32, Delta: time.Millisecond, Metrics: reg,
			Pipeline: PipelineConfig{Depth: 2, Workers: 2, Batch: 8}}
		s, err := NewSender(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Send(make([]byte, 12*8*32)); err != nil {
			t.Fatal(err)
		}
		for env.step() {
		}
		if env.failed == 0 {
			t.Fatal("no partial sends injected; test is vacuous")
		}
		if got := s.Stats().TxErrors; got != env.failed {
			t.Errorf("Stats().TxErrors = %d, env dropped %d frames", got, env.failed)
		}
		if got := s.m.txErrors.Value(); got != uint64(env.failed) {
			t.Errorf("np_sender_tx_errors_total = %d, want %d", got, env.failed)
		}
	})
}
