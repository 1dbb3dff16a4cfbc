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
	"reactive/depth0": {"2385:5f2cda49c38b80f6ee123663833570e6be3539762b53e4ead964270c2f6d52a2",
		"{DataTx:1620 ParityTx:292 PollTx:467 FinTx:6 NakRx:428 NakServed:291 Encoded:292 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:5acea6dfc98e7be8335ff403d3a3fd0a29bc4e7ae67ff26afea540af7d6222b6",
		"2385:a99c516bcca3531488ed16285464efed5a0d9ed9642bb7e08c2919b871af9e49"},
	"reactive/depth8": {"2385:5f2cda49c38b80f6ee123663833570e6be3539762b53e4ead964270c2f6d52a2",
		"{DataTx:1620 ParityTx:292 PollTx:467 FinTx:6 NakRx:428 NakServed:291 Encoded:292 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:5acea6dfc98e7be8335ff403d3a3fd0a29bc4e7ae67ff26afea540af7d6222b6",
		"2385:a99c516bcca3531488ed16285464efed5a0d9ed9642bb7e08c2919b871af9e49"},
	"proactive/depth0": {"2541:cd72f7c5939e5b6d412037fd8a71450632751249251ef551be70e4edbed1ec4a",
		"{DataTx:1655 ParityTx:441 PollTx:439 FinTx:6 NakRx:310 NakServed:263 Encoded:441 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:bfd05f3eb2d6b37ef781c6f3e1664361d5faba777307de4c09587ad9fad37fc8",
		"2541:b84c92eda177983b28fffb39e24fe690626730e2777a7be8d3b218d6bbe62ec4"},
	"proactive/depth8": {"2541:cd72f7c5939e5b6d412037fd8a71450632751249251ef551be70e4edbed1ec4a",
		"{DataTx:1655 ParityTx:441 PollTx:439 FinTx:6 NakRx:310 NakServed:263 Encoded:441 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:bfd05f3eb2d6b37ef781c6f3e1664361d5faba777307de4c09587ad9fad37fc8",
		"2541:b84c92eda177983b28fffb39e24fe690626730e2777a7be8d3b218d6bbe62ec4"},
	"carousel/depth0": {"2520:277a5126e8b6968ab8e6e4d2ce738b49eb252d20434c8fe1cfa3d7281cbd926a",
		"{DataTx:1728 ParityTx:528 PollTx:258 FinTx:6 NakRx:309 NakServed:258 Encoded:528 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:532ac47fdb168e6657f33e5e1c35fb7bc667ef4b7751e69b2b92ad2174384c7f",
		"2520:29aa3859baee0f7d3973956cec46f7080c9d897c681774ab9b09e4e6a9e54e95"},
	"carousel/depth8": {"2520:277a5126e8b6968ab8e6e4d2ce738b49eb252d20434c8fe1cfa3d7281cbd926a",
		"{DataTx:1728 ParityTx:528 PollTx:258 FinTx:6 NakRx:309 NakServed:258 Encoded:528 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:532ac47fdb168e6657f33e5e1c35fb7bc667ef4b7751e69b2b92ad2174384c7f",
		"2520:29aa3859baee0f7d3973956cec46f7080c9d897c681774ab9b09e4e6a9e54e95"},
	"ewma/depth0": {"2189:884d6b1f20dc828bca8420887e46dfd416963413fbe2f37b06325ac18d586dbd",
		"{DataTx:1410 ParityTx:483 PollTx:290 FinTx:6 NakRx:143 NakServed:114 Encoded:483 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:a18e45f2c4bc3a7cd5978aea900a2a17617be72867642b0ebd01ad6063aea71b",
		"2189:04bfb569ff920c883018943254606188537dfc5329226dd98e05ef05257dfc20"},
	"ewma/depth8": {"2189:884d6b1f20dc828bca8420887e46dfd416963413fbe2f37b06325ac18d586dbd",
		"{DataTx:1410 ParityTx:483 PollTx:290 FinTx:6 NakRx:143 NakServed:114 Encoded:483 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:a18e45f2c4bc3a7cd5978aea900a2a17617be72867642b0ebd01ad6063aea71b",
		"2189:04bfb569ff920c883018943254606188537dfc5329226dd98e05ef05257dfc20"},
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
