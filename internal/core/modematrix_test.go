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
	"reactive/depth0": {"2455:3b668c59c4c43bc7201ad556426e8901bcf5088c09ab850763a40d2006982334",
		"{DataTx:1633 ParityTx:289 PollTx:527 FinTx:6 NakRx:592 NakServed:351 Encoded:289 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:3f64d5a249cb188e11bf814a7b38e04cefe856e8ec7e3fce3c66a23e270fdaf5",
		"2455:a92cff8067390c4c37764479bbade62f5d6264a1fbfd177856e255349161c0d8"},
	"reactive/depth8": {"2455:3b668c59c4c43bc7201ad556426e8901bcf5088c09ab850763a40d2006982334",
		"{DataTx:1633 ParityTx:289 PollTx:527 FinTx:6 NakRx:592 NakServed:351 Encoded:289 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:3f64d5a249cb188e11bf814a7b38e04cefe856e8ec7e3fce3c66a23e270fdaf5",
		"2455:a92cff8067390c4c37764479bbade62f5d6264a1fbfd177856e255349161c0d8"},
	"proactive/depth0": {"2702:c1680e2ecabcadce72e688878c84210e7de00fa7214020eb9121ef49bf354b1a",
		"{DataTx:1735 ParityTx:448 PollTx:513 FinTx:6 NakRx:415 NakServed:337 Encoded:448 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:9bf35b2f3762dc2c791f9b73328f0691dad0f0480fe20d5b456ae82604a69deb",
		"2702:eada3b9b26006d9f77712dcdfe3f2af1aaffa6f9cb73a07ad7eb7f21620ef0f3"},
	"proactive/depth8": {"2702:c1680e2ecabcadce72e688878c84210e7de00fa7214020eb9121ef49bf354b1a",
		"{DataTx:1735 ParityTx:448 PollTx:513 FinTx:6 NakRx:415 NakServed:337 Encoded:448 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:9bf35b2f3762dc2c791f9b73328f0691dad0f0480fe20d5b456ae82604a69deb",
		"2702:eada3b9b26006d9f77712dcdfe3f2af1aaffa6f9cb73a07ad7eb7f21620ef0f3"},
	"carousel/depth0": {"2482:53a699a23b5b0306cf0ef6dfd7406d1f81c73867d647ce38ece391976f71a68e",
		"{DataTx:1705 ParityTx:528 PollTx:243 FinTx:6 NakRx:300 NakServed:243 Encoded:528 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:7786322e379f115abe414ecc03123f1ed7e02b2c87a8445e29e4d1525c60c9b7",
		"2482:f36ecbad2b2685b6cbd8cb78918b56a7aa68b834cd926b5340eb4cb225850030"},
	"carousel/depth8": {"2482:53a699a23b5b0306cf0ef6dfd7406d1f81c73867d647ce38ece391976f71a68e",
		"{DataTx:1705 ParityTx:528 PollTx:243 FinTx:6 NakRx:300 NakServed:243 Encoded:528 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:7786322e379f115abe414ecc03123f1ed7e02b2c87a8445e29e4d1525c60c9b7",
		"2482:f36ecbad2b2685b6cbd8cb78918b56a7aa68b834cd926b5340eb4cb225850030"},
	"ewma/depth0": {"2176:da52d13459c705ce7600fdf17f3a376875876d4e859ed0c8f7efd996a8efce00",
		"{DataTx:1408 ParityTx:460 PollTx:302 FinTx:6 NakRx:171 NakServed:126 Encoded:460 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:a4c6bb89f9fe6d19fbd1052536e9e299f4485bc16e761e4d8a323be2d69a3dd8",
		"2176:90d208d16ed32a6e3e56ed652ea21de7be1d8eaae3b59b2241b479bec9cd6585"},
	"ewma/depth8": {"2176:da52d13459c705ce7600fdf17f3a376875876d4e859ed0c8f7efd996a8efce00",
		"{DataTx:1408 ParityTx:460 PollTx:302 FinTx:6 NakRx:171 NakServed:126 Encoded:460 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:a4c6bb89f9fe6d19fbd1052536e9e299f4485bc16e761e4d8a323be2d69a3dd8",
		"2176:90d208d16ed32a6e3e56ed652ea21de7be1d8eaae3b59b2241b479bec9cd6585"},
	"ladder/depth0": {"2834:16a35215937929eed0725e14d766dde9fa7f03f1bb09785184857fc9415f61bc",
		"{DataTx:1415 ParityTx:1121 PollTx:292 FinTx:6 NakRx:166 NakServed:100 Encoded:1121 TxErrors:0 NcTx:0 NcRounds:0}",
		"192:c022f9be8d85d8d861769754e457565039b67d8372e72ec588677264711bb3b6",
		"2834:2f6aa316dcef7b78edeca64003ae5c364a00c5a5000e3ae0582adb568e7ba66b"},
	"ladder/depth8": {"2834:16a35215937929eed0725e14d766dde9fa7f03f1bb09785184857fc9415f61bc",
		"{DataTx:1415 ParityTx:1121 PollTx:292 FinTx:6 NakRx:166 NakServed:100 Encoded:1337 TxErrors:0 NcTx:0 NcRounds:0}",
		"192:c022f9be8d85d8d861769754e457565039b67d8372e72ec588677264711bb3b6",
		"2834:2f6aa316dcef7b78edeca64003ae5c364a00c5a5000e3ae0582adb568e7ba66b"},
	"ladder-nc/depth0": {"2892:3c6a5b2d9cd8713b40744c51e6b630fa13879b74715dd52328fc9fe4be02bc49",
		"{DataTx:1408 ParityTx:1158 PollTx:304 FinTx:6 NakRx:173 NakServed:108 Encoded:1158 TxErrors:0 NcTx:16 NcRounds:2}",
		"196:57242d9f4ed0488d525866dffed6372cf0b73764c2c45046321e059b601519e4",
		"2892:3e4e4f4c632d7c3c4b1f2da2ed473f96ad84bd45747d112064dca0c4d70e857d"},
	"ladder-nc/depth8": {"2892:3c6a5b2d9cd8713b40744c51e6b630fa13879b74715dd52328fc9fe4be02bc49",
		"{DataTx:1408 ParityTx:1158 PollTx:304 FinTx:6 NakRx:173 NakServed:108 Encoded:1391 TxErrors:0 NcTx:16 NcRounds:2}",
		"196:57242d9f4ed0488d525866dffed6372cf0b73764c2c45046321e059b601519e4",
		"2892:3e4e4f4c632d7c3c4b1f2da2ed473f96ad84bd45747d112064dca0c4d70e857d"},
}
