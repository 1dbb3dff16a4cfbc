package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
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

// modeMatrix lists the sender's seven redundancy/emission modes. Every
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
	{"preencode", func() Config {
		c := staticMatrixConfig()
		c.Proactive, c.PreEncode = 1, true
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
	{"depth8", PipelineConfig{Depth: 8, Workers: 3, Batch: 1, EncodeShards: 2}},
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
				if !cfg.AdaptiveFEC && st.DataTx <= s.SourcePackets() {
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
	"reactive/depth0": {"2552:c1b9b59eb3fed4896919ce4ba24758c2d5de707497a5467dba08b5a26bdc2aa7",
		"{DataTx:1685 ParityTx:302 PollTx:559 FinTx:6 NakRx:532 NakServed:383 Encoded:302 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:9a898bcbea40181a0a8bc6f3940227bc24567dc61a3e8e03cf2073bc76ed10d4",
		"2552:0ed58971081d5c0008e36c89b712b61933d150e47f9c4757c414ef5cf597ef60"},
	"reactive/depth8": {"2552:c1b9b59eb3fed4896919ce4ba24758c2d5de707497a5467dba08b5a26bdc2aa7",
		"{DataTx:1685 ParityTx:302 PollTx:559 FinTx:6 NakRx:532 NakServed:383 Encoded:302 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:9a898bcbea40181a0a8bc6f3940227bc24567dc61a3e8e03cf2073bc76ed10d4",
		"2552:0ed58971081d5c0008e36c89b712b61933d150e47f9c4757c414ef5cf597ef60"},
	"proactive/depth0": {"2597:002510decb30d61deef0d68ed16f39782337978c6eec1eff12ac973f7b6f05a8",
		"{DataTx:1686 ParityTx:445 PollTx:460 FinTx:6 NakRx:320 NakServed:284 Encoded:445 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:a6579832b26c98da61a12b5a05c3d3d119b617a7da30ab7305fef43a384d06b2",
		"2597:b3b97c1322ac0a7059c4ab06184774c6b2fd68cd9fe66881142a6fa46dd114db"},
	"proactive/depth8": {"2597:002510decb30d61deef0d68ed16f39782337978c6eec1eff12ac973f7b6f05a8",
		"{DataTx:1686 ParityTx:445 PollTx:460 FinTx:6 NakRx:320 NakServed:284 Encoded:445 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:a6579832b26c98da61a12b5a05c3d3d119b617a7da30ab7305fef43a384d06b2",
		"2597:b3b97c1322ac0a7059c4ab06184774c6b2fd68cd9fe66881142a6fa46dd114db"},
	"carousel/depth0": {"2476:ad73d733f71d52739237a82239f05e58641b27fd64dc9dcb8a388d443d42b52e",
		"{DataTx:1703 ParityTx:528 PollTx:239 FinTx:6 NakRx:287 NakServed:239 Encoded:528 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:63109e7573466ebadca05f1e62ec0413c1a4a49e0a3d815bdb1c318617a6ddc6",
		"2476:94a94e2fca91e9f81c33431e486b99c1af361a4aaa59eaadcd4cb647ebfad9e2"},
	"carousel/depth8": {"2476:ad73d733f71d52739237a82239f05e58641b27fd64dc9dcb8a388d443d42b52e",
		"{DataTx:1703 ParityTx:528 PollTx:239 FinTx:6 NakRx:287 NakServed:239 Encoded:528 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:63109e7573466ebadca05f1e62ec0413c1a4a49e0a3d815bdb1c318617a6ddc6",
		"2476:94a94e2fca91e9f81c33431e486b99c1af361a4aaa59eaadcd4cb647ebfad9e2"},
	"preencode/depth0": {"2583:e0587aed413cb0d6054e60dc3002afc2e48613854764eee8fc5eb69f0333de15",
		"{DataTx:1685 ParityTx:375 PollTx:517 FinTx:6 NakRx:417 NakServed:341 Encoded:528 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:c18d681d8cbc81ff23dc8fb0cb4a7053a2b07df3cebad3b3f9373f6b25981277",
		"2583:66e3594656dab5db9d2efb59f9a01d597e6f13b93ec35532404b16aad9a9fa42"},
	"preencode/depth8": {"2583:e0587aed413cb0d6054e60dc3002afc2e48613854764eee8fc5eb69f0333de15",
		"{DataTx:1685 ParityTx:375 PollTx:517 FinTx:6 NakRx:417 NakServed:341 Encoded:528 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:c18d681d8cbc81ff23dc8fb0cb4a7053a2b07df3cebad3b3f9373f6b25981277",
		"2583:66e3594656dab5db9d2efb59f9a01d597e6f13b93ec35532404b16aad9a9fa42"},
	"ewma/depth0": {"2261:fea0342db76f92422394602ee60a4f43b52fa5383eca5ad184dc01ac28600989",
		"{DataTx:1416 ParityTx:513 PollTx:326 FinTx:6 NakRx:167 NakServed:150 Encoded:513 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:5fc1c4572db3156964df51343dedbbb92f2f479c76a33009e50efb5914b85ae7",
		"2261:2b95b450d9945c67b35acd2ded532fd79d6e52f0db2bb4149adb691b26c4f7b7"},
	"ewma/depth8": {"2261:fea0342db76f92422394602ee60a4f43b52fa5383eca5ad184dc01ac28600989",
		"{DataTx:1416 ParityTx:513 PollTx:326 FinTx:6 NakRx:167 NakServed:150 Encoded:513 TxErrors:0 NcTx:0 NcRounds:0}",
		"176:5fc1c4572db3156964df51343dedbbb92f2f479c76a33009e50efb5914b85ae7",
		"2261:2b95b450d9945c67b35acd2ded532fd79d6e52f0db2bb4149adb691b26c4f7b7"},
	"ladder/depth0": {"2888:2e71bce080aeb0976c9033d81e49f76a8ce7a29e42c8a4895b2569ad77118f5b",
		"{DataTx:1420 ParityTx:1160 PollTx:302 FinTx:6 NakRx:134 NakServed:106 Encoded:1160 TxErrors:0 NcTx:0 NcRounds:0}",
		"196:31996cbf96b8bda35205c59fdf1dd2c22ad04fb79240a52f5f06d21358531e27",
		"2888:4bf73cf805ac7b1ad1a150cc0c2c25bc1b57a2e8f68fafe55a4e0e92f50e0230"},
	"ladder/depth8": {"2888:2e71bce080aeb0976c9033d81e49f76a8ce7a29e42c8a4895b2569ad77118f5b",
		"{DataTx:1420 ParityTx:1160 PollTx:302 FinTx:6 NakRx:134 NakServed:106 Encoded:1389 TxErrors:0 NcTx:0 NcRounds:0}",
		"196:31996cbf96b8bda35205c59fdf1dd2c22ad04fb79240a52f5f06d21358531e27",
		"2888:4bf73cf805ac7b1ad1a150cc0c2c25bc1b57a2e8f68fafe55a4e0e92f50e0230"},
	"ladder-nc/depth0": {"2918:76ea5a81de271e9dfc13309eb016ef7b70f666845493ce7884755a1405bdbf98",
		"{DataTx:1408 ParityTx:1169 PollTx:305 FinTx:6 NakRx:135 NakServed:108 Encoded:1169 TxErrors:0 NcTx:30 NcRounds:4}",
		"197:34d1a58c8e640e53a38a2d0239769fac602918fd38e2808c31bf53506a556f5a",
		"2918:ea6859601b3dee9eb08658411b0d50b7140d70240ce99fe3a3409d43441f5e4d"},
	"ladder-nc/depth8": {"2918:76ea5a81de271e9dfc13309eb016ef7b70f666845493ce7884755a1405bdbf98",
		"{DataTx:1408 ParityTx:1169 PollTx:305 FinTx:6 NakRx:135 NakServed:108 Encoded:1399 TxErrors:0 NcTx:30 NcRounds:4}",
		"197:34d1a58c8e640e53a38a2d0239769fac602918fd38e2808c31bf53506a556f5a",
		"2918:ea6859601b3dee9eb08658411b0d50b7140d70240ce99fe3a3409d43441f5e4d"},
}
