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
// showing tap every frame the sender multicasts.
func runMatrixChannel(t testing.TB, cfg Config, tap func(b []byte)) (*harness, []byte) {
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
		seed:      3101,
		senderEnv: func(n *simnet.Node) Env { return recordingEnv{n, tap} },
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
	})
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

var modeGoldens = map[string]modeGolden{
	"reactive/depth0": {"2377:207e53c43585a972e720a3483b43c8e0ded898452fa5695304e018a36bd2a36c",
		"{DataTx:1617 ParityTx:291 PollTx:463 FinTx:6 NakRx:424 NakServed:287 Encoded:291 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:226ae58047c25b699d3d3a7eba201dfaea1e0bfaed87401b8f9e52d067f6cbf9",
		"2377:fad0b61e07807bef8511023eac85c653d5a49d37f7e886daea7caca8d9ba0869"},
	"reactive/depth8": {"2377:207e53c43585a972e720a3483b43c8e0ded898452fa5695304e018a36bd2a36c",
		"{DataTx:1617 ParityTx:291 PollTx:463 FinTx:6 NakRx:424 NakServed:287 Encoded:291 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:226ae58047c25b699d3d3a7eba201dfaea1e0bfaed87401b8f9e52d067f6cbf9",
		"2377:fad0b61e07807bef8511023eac85c653d5a49d37f7e886daea7caca8d9ba0869"},
	"proactive/depth0": {"2545:b75a25d20e09d632b73b4a905bf5e8ebffff9801e4d9585fb06e6655a2447330",
		"{DataTx:1657 ParityTx:441 PollTx:441 FinTx:6 NakRx:312 NakServed:265 Encoded:441 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:d6a14bc7bf02bd16bd2ee119bcde0cfae2e673eb7be47760173383a2801c9abe",
		"2545:3de712fc710404595510588175d0879bb896ddb993c1dd2f71514fd4f4b63425"},
	"proactive/depth8": {"2545:b75a25d20e09d632b73b4a905bf5e8ebffff9801e4d9585fb06e6655a2447330",
		"{DataTx:1657 ParityTx:441 PollTx:441 FinTx:6 NakRx:312 NakServed:265 Encoded:441 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:d6a14bc7bf02bd16bd2ee119bcde0cfae2e673eb7be47760173383a2801c9abe",
		"2545:3de712fc710404595510588175d0879bb896ddb993c1dd2f71514fd4f4b63425"},
	"carousel/depth0": {"2471:4f084ad9ad99377b68de26cdf582f3047089d0fb92b86984f141336a0a68a5a4",
		"{DataTx:1698 ParityTx:528 PollTx:239 FinTx:6 NakRx:283 NakServed:239 Encoded:528 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:4e7b1bf3a8e75311ee645defa58df810ddc5776ef3b6961fc0b0e5a930df0249",
		"2471:9fc6f090bc207ccf9839990647ca46fa15388fe4263f1568a886d3764b25c914"},
	"carousel/depth8": {"2471:4f084ad9ad99377b68de26cdf582f3047089d0fb92b86984f141336a0a68a5a4",
		"{DataTx:1698 ParityTx:528 PollTx:239 FinTx:6 NakRx:283 NakServed:239 Encoded:528 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:4e7b1bf3a8e75311ee645defa58df810ddc5776ef3b6961fc0b0e5a930df0249",
		"2471:9fc6f090bc207ccf9839990647ca46fa15388fe4263f1568a886d3764b25c914"},
	"ewma/depth0": {"2183:8761eaeb9d73193e2b2be8cac2815f76d74a388055c0fd1b3ec4ad18237513b7",
		"{DataTx:1410 ParityTx:480 PollTx:287 FinTx:6 NakRx:140 NakServed:111 Encoded:480 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:4c5344acfd90f57afda55703a4b4a0e51a5aad9d56afce4b86870453874f268d",
		"2183:fcf9cff9359047c466bb29c771c0283540235d32253011ec23fa6ca103387714"},
	"ewma/depth8": {"2183:8761eaeb9d73193e2b2be8cac2815f76d74a388055c0fd1b3ec4ad18237513b7",
		"{DataTx:1410 ParityTx:480 PollTx:287 FinTx:6 NakRx:140 NakServed:111 Encoded:480 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:4c5344acfd90f57afda55703a4b4a0e51a5aad9d56afce4b86870453874f268d",
		"2183:fcf9cff9359047c466bb29c771c0283540235d32253011ec23fa6ca103387714"},
	"ladder/depth0": {"2816:57e30a90d47419a3471d3587db1546aa961e1b646531fcf68669376cf259e410",
		"{DataTx:1414 ParityTx:1120 PollTx:276 FinTx:6 NakRx:136 NakServed:82 Encoded:1120 TxErrors:0 NcTx:0 NcRounds:0}",
		"194:0f5213c46271812ca9031410c114d4ae0cb142a2e7010e8d4f80800fd96ccca7",
		"2816:54f0a216808794ce9d9d4a102b89d9cd17fe2ab324619fbc928bbac2d4db8de8"},
	"ladder/depth8": {"2816:57e30a90d47419a3471d3587db1546aa961e1b646531fcf68669376cf259e410",
		"{DataTx:1414 ParityTx:1120 PollTx:276 FinTx:6 NakRx:136 NakServed:82 Encoded:1357 TxErrors:0 NcTx:0 NcRounds:0}",
		"194:0f5213c46271812ca9031410c114d4ae0cb142a2e7010e8d4f80800fd96ccca7",
		"2816:54f0a216808794ce9d9d4a102b89d9cd17fe2ab324619fbc928bbac2d4db8de8"},
	"ladder-nc/depth0": {"2857:827e2898215c576e2277cfd38746c0340b0a351043c2cfef92ca43f087e0d3b2",
		"{DataTx:1408 ParityTx:1145 PollTx:292 FinTx:6 NakRx:147 NakServed:98 Encoded:1145 TxErrors:0 NcTx:6 NcRounds:1}",
		"194:e848c9361a06bcbfbe024eb694d21ec9bc78010c669b31dae26345968ed1f041",
		"2857:af3b791ad6a19e2fa32336cbcae00adbe2a7a794e8a7714586836bb60b7310de"},
	"ladder-nc/depth8": {"2857:827e2898215c576e2277cfd38746c0340b0a351043c2cfef92ca43f087e0d3b2",
		"{DataTx:1408 ParityTx:1145 PollTx:292 FinTx:6 NakRx:147 NakServed:98 Encoded:1370 TxErrors:0 NcTx:6 NcRounds:1}",
		"194:e848c9361a06bcbfbe024eb694d21ec9bc78010c669b31dae26345968ed1f041",
		"2857:af3b791ad6a19e2fa32336cbcae00adbe2a7a794e8a7714586836bb60b7310de"},
}
