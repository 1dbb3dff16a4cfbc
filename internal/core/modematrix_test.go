package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"rmfec/internal/loss"
	"rmfec/internal/packet"
	"rmfec/internal/simnet"
)

// recordingEnv is a simnet sender node whose every outgoing frame is shown
// to tap (a transcript hash, a frame capture) before it reaches the medium.
type recordingEnv struct {
	*simnet.Node
	tap func(b []byte)
}

func (e recordingEnv) Multicast(b []byte) error {
	e.tap(b)
	return e.Node.Multicast(b)
}

func (e recordingEnv) MulticastControl(b []byte) error {
	e.tap(b)
	return e.Node.MulticastControl(b)
}

// modeGolden is what one cell of the mode matrix pins: the sender's
// length-framed wire transcript, its protocol counters, the hash of the
// rendered GroupTrace, and the hash of what the frames say (semanticsTap).
type modeGolden struct {
	transcript string
	stats      string
	trace      string
	semantics  string
}

// semanticsTap returns a tap that hashes what each sender frame says rather
// than how it is laid out: its Type, Group, Seq, K, Count and Payload, and
// on the FIN its Total. A change of header layout, or of what a TG frame's
// Total counts, leaves this hash where it was.
func semanticsTap(th *transcriptHash) func(b []byte) {
	return func(b []byte) {
		var p packet.Packet
		if err := packet.DecodeInto(&p, b); err != nil {
			panic(err)
		}
		total := uint32(0)
		if p.Type == packet.TypeFin {
			total = p.Total
		}
		th.add(fmt.Appendf(nil, "%d %d %d %d %d %d|%s", p.Type, p.Group, p.Seq, p.K, p.Count, total, p.Payload))
	}
}

func staticMatrixConfig() Config {
	return Config{Session: 7, K: 8, MaxParity: 3, ShardSize: 64,
		Ts: 2 * time.Millisecond, MaxNakSlots: 4}
}

// modeMatrix lists the sender's six redundancy/emission modes. Every
// row runs over the same seeded channel: 4 receivers, 0.5% Bernoulli loss
// shifting to 20% mid-transfer, which exhausts the small parity budgets
// of the static rows and of the ladder's low rungs.
var modeMatrix = []struct {
	name string
	cfg  func() Config
}{
	{"reactive", staticMatrixConfig},
	{"proactive", func() Config {
		c := staticMatrixConfig()
		c.Proactive = 2
		return c
	}},
	{"carousel", func() Config {
		c := staticMatrixConfig()
		c.Proactive, c.Carousel = 3, true
		return c
	}},
	{"ewma", func() Config {
		c := staticMatrixConfig()
		c.MaxParity, c.Proactive, c.Adaptive = 8, 1, true
		return c
	}},
	{"ladder", adaptiveConfig},
	{"ladder-nc", func() Config {
		c := portfolioConfig(GateForce)
		c.NCRepair = true
		return c
	}},
}

var matrixPipelines = []struct {
	name string
	pl   PipelineConfig
}{
	{"depth0", PipelineConfig{}},
	{"depth8", PipelineConfig{Depth: 8, Workers: 3, Batch: 1}},
}

func renderTrace(tr []GroupInfo) string {
	var b strings.Builder
	for _, g := range tr {
		fmt.Fprintf(&b, "%d:(%d,%d,a%d,tx%d);", g.Index, g.K, g.H, g.AUsed, g.TxCount)
	}
	return b.String()
}

// runMatrixChannel transfers the matrix message over the matrix channel,
// showing tap every frame the sender multicasts. With afterOnly set the
// sender's env hides TickEnv, so its pacing and FIN timers go through After.
func runMatrixChannel(t testing.TB, cfg Config, tap func(b []byte), afterOnly bool) (*harness, []byte) {
	t.Helper()
	h := newHarness(t, harnessOpts{
		r:   4,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return &shiftLoss{
				first:     loss.NewBernoulli(0.005, rng),
				second:    loss.NewBernoulli(0.2, rng),
				remaining: 600,
			}
		},
		seed: 3101,
		senderEnv: func(n *simnet.Node) Env {
			if afterOnly {
				return struct{ Env }{recordingEnv{n, tap}}
			}
			return recordingEnv{n, tap}
		},
	})
	// Not a multiple of any K*ShardSize in the matrix: the last group of
	// every mode carries a partial shard and all-padding shards.
	msg := testMessage(90017, 3102)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	return h, msg
}

func runModeCell(t *testing.T, cfg Config) (modeGolden, *Sender, string) {
	t.Helper()
	hash, sem := newTranscriptHash(), newTranscriptHash()
	semTap := semanticsTap(sem)
	h, _ := runMatrixChannel(t, cfg, func(b []byte) {
		hash.add(b)
		semTap(b)
	}, false)
	trace := renderTrace(h.sender.GroupTrace())
	return modeGolden{
		transcript: hash.sum(),
		stats:      fmt.Sprintf("%+v", h.sender.Stats()),
		trace:      fmt.Sprintf("%d:%x", len(h.sender.GroupTrace()), sha256.Sum256([]byte(trace))),
		semantics:  sem.sum(),
	}, h.sender, trace
}

// TestModeMatrixGolden pins every sender mode, serial and pipelined, on a
// lossy channel: wire transcript, SenderStats and GroupTrace were recorded
// from the two-path sender (static Send/refill next to
// sendAdaptive/refillAdaptive) and must not move when the paths merge.
func TestModeMatrixGolden(t *testing.T) {
	for _, m := range modeMatrix {
		for _, p := range matrixPipelines {
			name := m.name + "/" + p.name
			t.Run(name, func(t *testing.T) {
				cfg := m.cfg()
				cfg.Pipeline = p.pl
				got, s, trace := runModeCell(t, cfg)
				want, ok := modeGoldens[name]
				if !ok {
					t.Fatalf("no golden recorded; this run:\n\t%q: {%q,\n\t\t%q,\n\t\t%q,\n\t\t%q},", name, got.transcript, got.stats, got.trace, got.semantics)
				}
				if got != want {
					t.Errorf("drifted from the recorded two-path sender:\n got %+v\nwant %+v\ntrace %s", got, want, trace)
				}
				// Guard the rows against going vacuous if the scenario is
				// ever re-tuned.
				st := s.Stats()
				switch {
				case cfg.Adaptive:
					// h = 8 outlasts this channel once no round is served
					// twice, so the EWMA row is guarded by its proactive
					// level moving off the initial one instead.
					if !slices.ContainsFunc(s.GroupTrace(), func(g GroupInfo) bool { return g.AUsed != cfg.Proactive }) {
						t.Error("EWMA row never moved its proactive level")
					}
				case !cfg.AdaptiveFEC && st.DataTx <= s.SourcePackets():
					t.Errorf("static row never exhausted its parity budget into a resend (DataTx %d, source %d)", st.DataTx, s.SourcePackets())
				}
				if cfg.AdaptiveFEC && s.ctl.Retunes() == 0 {
					t.Error("ladder row never retuned")
				}
				if cfg.NCRepair && st.NcRounds == 0 {
					t.Error("NC row never exhausted a parity budget into an NC round")
				}
			})
		}
	}
}

// recordingEnv takes Tick from its simnet node, so TestModeMatrixGolden
// paces the sender on Tick and TestModeMatrixTimerPathsAgree on After.
var _ TickEnv = recordingEnv{}

// TestModeMatrixTimerPathsAgree re-runs every mode matrix cell with the
// sender's env wrapped so that it hides TickEnv: pacing and the FIN repeat
// then arm through After, and the transcript and counters must be the
// golden ones recorded on Tick.
func TestModeMatrixTimerPathsAgree(t *testing.T) {
	for _, m := range modeMatrix {
		for _, p := range matrixPipelines {
			name := m.name + "/" + p.name
			t.Run(name, func(t *testing.T) {
				cfg := m.cfg()
				cfg.Pipeline = p.pl
				hash := newTranscriptHash()
				h, _ := runMatrixChannel(t, cfg, hash.add, true)
				if h.sender.tenv != nil {
					t.Fatal("the wrapped env still offers Tick")
				}
				want := modeGoldens[name]
				if got, stats := hash.sum(), fmt.Sprintf("%+v", h.sender.Stats()); got != want.transcript || stats != want.stats {
					t.Errorf("After-paced sender drifted from the Tick-paced golden:\n got %s %s\nwant %s %s", got, stats, want.transcript, want.stats)
				}
			})
		}
	}
}

var modeGoldens = map[string]modeGolden{
	"reactive/depth0": {"2350:09c85a61cbd235cec6d4f330e873863676e0c772bb09b8e7c9b5dfb36b3e60eb",
		"{DataTx:1607 ParityTx:282 PollTx:455 FinTx:6 NakRx:413 NakServed:279 Encoded:282 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:c85a6f4acd2f5514e5def21bd89cb75ca4788ab0a8e469be54aa3b8f6322fe5e",
		"2350:d3a83eb87666e9f0760b87706437038081a0c8c0dd16de04c02bbfe9da5a492b"},
	"reactive/depth8": {"2350:09c85a61cbd235cec6d4f330e873863676e0c772bb09b8e7c9b5dfb36b3e60eb",
		"{DataTx:1607 ParityTx:282 PollTx:455 FinTx:6 NakRx:413 NakServed:279 Encoded:282 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:c85a6f4acd2f5514e5def21bd89cb75ca4788ab0a8e469be54aa3b8f6322fe5e",
		"2350:d3a83eb87666e9f0760b87706437038081a0c8c0dd16de04c02bbfe9da5a492b"},
	"proactive/depth0": {"2545:57e7bd321d5568a414e4b1c848b772113a28091c311786c558d1bbc1a4bdc5a2",
		"{DataTx:1657 ParityTx:441 PollTx:441 FinTx:6 NakRx:312 NakServed:265 Encoded:441 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:d6a14bc7bf02bd16bd2ee119bcde0cfae2e673eb7be47760173383a2801c9abe",
		"2545:3e215536d173fad017c233f00664c36b18270e3d73b78644fb1d8aca5a602bf8"},
	"proactive/depth8": {"2545:57e7bd321d5568a414e4b1c848b772113a28091c311786c558d1bbc1a4bdc5a2",
		"{DataTx:1657 ParityTx:441 PollTx:441 FinTx:6 NakRx:312 NakServed:265 Encoded:441 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:d6a14bc7bf02bd16bd2ee119bcde0cfae2e673eb7be47760173383a2801c9abe",
		"2545:3e215536d173fad017c233f00664c36b18270e3d73b78644fb1d8aca5a602bf8"},
	"carousel/depth0": {"2471:4f084ad9ad99377b68de26cdf582f3047089d0fb92b86984f141336a0a68a5a4",
		"{DataTx:1698 ParityTx:528 PollTx:239 FinTx:6 NakRx:283 NakServed:239 Encoded:528 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:4e7b1bf3a8e75311ee645defa58df810ddc5776ef3b6961fc0b0e5a930df0249",
		"2471:9fc6f090bc207ccf9839990647ca46fa15388fe4263f1568a886d3764b25c914"},
	"carousel/depth8": {"2471:4f084ad9ad99377b68de26cdf582f3047089d0fb92b86984f141336a0a68a5a4",
		"{DataTx:1698 ParityTx:528 PollTx:239 FinTx:6 NakRx:283 NakServed:239 Encoded:528 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:4e7b1bf3a8e75311ee645defa58df810ddc5776ef3b6961fc0b0e5a930df0249",
		"2471:9fc6f090bc207ccf9839990647ca46fa15388fe4263f1568a886d3764b25c914"},
	"ewma/depth0": {"2199:a2df05e23173bacdf4b7bd34d907267aef82b39649cb2beb9218e23bd1e1f480",
		"{DataTx:1408 ParityTx:486 PollTx:299 FinTx:6 NakRx:160 NakServed:123 Encoded:486 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:7ab65030ffa8b71af1fd939063add61de1bd6c2f23ae966fa1f2e08e78260cf0",
		"2199:02dc3ca436e7b40fbf48b6c4a99650577355287a3341f27f1fd04f1e3aad5a17"},
	"ewma/depth8": {"2199:a2df05e23173bacdf4b7bd34d907267aef82b39649cb2beb9218e23bd1e1f480",
		"{DataTx:1408 ParityTx:486 PollTx:299 FinTx:6 NakRx:160 NakServed:123 Encoded:486 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:7ab65030ffa8b71af1fd939063add61de1bd6c2f23ae966fa1f2e08e78260cf0",
		"2199:02dc3ca436e7b40fbf48b6c4a99650577355287a3341f27f1fd04f1e3aad5a17"},
	"ladder/depth0": {"2785:6da27720438da986dfaf3a2adeb5cd038cde8a8518d76a255e97f41c3dc06ca6",
		"{DataTx:1409 ParityTx:1092 PollTx:278 FinTx:6 NakRx:136 NakServed:88 Encoded:1092 TxErrors:0 NcTx:0 NcRounds:0}",
		"190:46b9ad3406bfaf86420e90ba27c0bf4454570e84a569b07122fa177fc711a65a",
		"2785:402a9e0cfab64a660a24644f642a3ccbd35814e6eb0b54f760af71e5f5380a4d"},
	"ladder/depth8": {"2785:6da27720438da986dfaf3a2adeb5cd038cde8a8518d76a255e97f41c3dc06ca6",
		"{DataTx:1409 ParityTx:1092 PollTx:278 FinTx:6 NakRx:136 NakServed:88 Encoded:1317 TxErrors:0 NcTx:0 NcRounds:0}",
		"190:46b9ad3406bfaf86420e90ba27c0bf4454570e84a569b07122fa177fc711a65a",
		"2785:402a9e0cfab64a660a24644f642a3ccbd35814e6eb0b54f760af71e5f5380a4d"},
	"ladder-nc/depth0": {"2840:d7889e4d2ad7c4fb3af98c093d182f1db40e91003e904a07a9ba4eb105f70118",
		"{DataTx:1408 ParityTx:1144 PollTx:277 FinTx:6 NakRx:111 NakServed:82 Encoded:1144 TxErrors:0 NcTx:5 NcRounds:1}",
		"195:1713a98edce69dcdc95e529f806ddaa54279493020ea35e58526663194c5091c",
		"2840:42faf7efa282a4c41b3ac62906c623c532a7928e59872745079b3c94d1996fdb"},
	"ladder-nc/depth8": {"2840:d7889e4d2ad7c4fb3af98c093d182f1db40e91003e904a07a9ba4eb105f70118",
		"{DataTx:1408 ParityTx:1144 PollTx:277 FinTx:6 NakRx:111 NakServed:82 Encoded:1379 TxErrors:0 NcTx:5 NcRounds:1}",
		"195:1713a98edce69dcdc95e529f806ddaa54279493020ea35e58526663194c5091c",
		"2840:42faf7efa282a4c41b3ac62906c623c532a7928e59872745079b3c94d1996fdb"},
}
