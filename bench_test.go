// Benchmarks regenerating every figure of the paper's evaluation plus the
// ablation studies called out in DESIGN.md. Each BenchmarkFigNN runs the
// corresponding generator and reports the figure's headline value as a
// custom metric, so `go test -bench .` doubles as a one-shot reproduction
// of the whole evaluation (EXPERIMENTS.md records the expected values).
package rmfec

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/figures"
	"rmfec/internal/loss"
	"rmfec/internal/model"
	"rmfec/internal/rse"
	"rmfec/internal/rse16"
	"rmfec/internal/sim"
	"rmfec/internal/simnet"
)

// benchOpt keeps figure regeneration fast enough for -bench while still
// exercising the full pipeline; use cmd/figures for precision runs.
func benchOpt() figures.Options {
	return figures.Options{Seed: 1997, Quick: true}
}

// lastOf returns the figure series' value at its largest x.
func lastOf(b *testing.B, f *figures.Figure, name string) float64 {
	b.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			return s.Y[len(s.Y)-1]
		}
	}
	b.Fatalf("%s: no series %q", f.ID, name)
	return 0
}

func benchFigure(b *testing.B, id string, metrics func(*figures.Figure) map[string]float64) {
	b.Helper()
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Generate(id, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	for name, v := range metrics(fig) {
		b.ReportMetric(v, name)
	}
}

func BenchmarkFig01CoderThroughput(b *testing.B) {
	benchFigure(b, "fig1", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"enc_k7_pkts/s":   lastOf(b, f, "encoding k=7"),
			"enc_k100_pkts/s": lastOf(b, f, "encoding k=100"),
		}
	})
}

func BenchmarkFig03LayeredH2(b *testing.B) {
	benchFigure(b, "fig3", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"EM_noFEC@1e6": lastOf(b, f, "no FEC"),
			"EM_k7@1e6":    lastOf(b, f, "layered k=7"),
			"EM_k100@1e6":  lastOf(b, f, "layered k=100"),
		}
	})
}

func BenchmarkFig04LayeredH7(b *testing.B) {
	benchFigure(b, "fig4", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"EM_k7@1e6":   lastOf(b, f, "layered k=7"),
			"EM_k100@1e6": lastOf(b, f, "layered k=100"),
		}
	})
}

func BenchmarkFig05LayeredVsIntegrated(b *testing.B) {
	benchFigure(b, "fig5", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"EM_noFEC@1e6":      lastOf(b, f, "no FEC"),
			"EM_layered@1e6":    lastOf(b, f, "layered (7,9)"),
			"EM_integrated@1e6": lastOf(b, f, "integrated"),
		}
	})
}

func BenchmarkFig06FiniteParities(b *testing.B) {
	benchFigure(b, "fig6", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"EM_n8@1e6":   lastOf(b, f, "(7,8)"),
			"EM_n10@1e6":  lastOf(b, f, "(7,10)"),
			"EM_ninf@1e6": lastOf(b, f, "(7,inf)"),
		}
	})
}

func BenchmarkFig07IntegratedK(b *testing.B) {
	benchFigure(b, "fig7", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"EM_k7@1e6":   lastOf(b, f, "integr. FEC k=7"),
			"EM_k100@1e6": lastOf(b, f, "integr. FEC k=100"),
		}
	})
}

func BenchmarkFig08IntegratedP(b *testing.B) {
	benchFigure(b, "fig8", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"EM_k7@p0.1":   lastOf(b, f, "integr. FEC k=7"),
			"EM_k100@p0.1": lastOf(b, f, "integr. FEC k=100"),
		}
	})
}

func BenchmarkFig09HeteroNoFEC(b *testing.B) {
	benchFigure(b, "fig9", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"EM_0pct@1e6": lastOf(b, f, "high loss: 0%"),
			"EM_1pct@1e6": lastOf(b, f, "high loss: 1%"),
		}
	})
}

func BenchmarkFig10HeteroIntegrated(b *testing.B) {
	benchFigure(b, "fig10", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"EM_0pct@1e6": lastOf(b, f, "high loss: 0%"),
			"EM_1pct@1e6": lastOf(b, f, "high loss: 1%"),
		}
	})
}

func BenchmarkFig11LayeredFBT(b *testing.B) {
	benchFigure(b, "fig11", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"EM_indep@max": lastOf(b, f, "layered FEC indep. loss"),
			"EM_fbt@max":   lastOf(b, f, "layered FEC FBT loss"),
		}
	})
}

func BenchmarkFig12IntegratedFBT(b *testing.B) {
	benchFigure(b, "fig12", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"EM_indep@max": lastOf(b, f, "integrated FEC indep. loss"),
			"EM_fbt@max":   lastOf(b, f, "integrated FEC FBT loss"),
		}
	})
}

func BenchmarkFig14BurstCensus(b *testing.B) {
	benchFigure(b, "fig14", func(f *figures.Figure) map[string]float64 {
		var burst figures.Series
		for _, s := range f.Series {
			if s.Name == "burst loss, b = 2" {
				burst = s
			}
		}
		return map[string]float64{"max_burst_len": burst.X[len(burst.X)-1]}
	})
}

func BenchmarkFig15BurstLayered(b *testing.B) {
	benchFigure(b, "fig15", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"EM_noFEC@max": lastOf(b, f, "no FEC"),
			"EM_7+1@max":   lastOf(b, f, "FEC layer (7+1)"),
		}
	})
}

func BenchmarkFig16BurstIntegrated(b *testing.B) {
	benchFigure(b, "fig16", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"EM_fec2_k7@max":   lastOf(b, f, "integrated FEC 2 k=7"),
			"EM_fec2_k100@max": lastOf(b, f, "integrated FEC 2 k=100"),
		}
	})
}

func BenchmarkFig17ProcessingRates(b *testing.B) {
	benchFigure(b, "fig17", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"NPsend_pkts/ms@1e6": lastOf(b, f, "NP sender"),
			"N2send_pkts/ms@1e6": lastOf(b, f, "N2 sender"),
		}
	})
}

func BenchmarkFig18Throughput(b *testing.B) {
	benchFigure(b, "fig18", func(f *figures.Figure) map[string]float64 {
		return map[string]float64{
			"N2@1e6":    lastOf(b, f, "N2"),
			"NPpre@1e6": lastOf(b, f, "NP pre-encode"),
		}
	})
}

// --- Codec micro-benchmarks (the raw numbers behind Fig 1) ---

func benchEncode(b *testing.B, k, h, size int) {
	code := rse.MustNew(k, h)
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	parity := make([][]byte, h)
	b.SetBytes(int64(k * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSEEncodeK7H1(b *testing.B)    { benchEncode(b, 7, 1, 1024) }
func BenchmarkRSEEncodeK20H5(b *testing.B)   { benchEncode(b, 20, 5, 1024) }
func BenchmarkRSEEncodeK100H20(b *testing.B) { benchEncode(b, 100, 20, 1024) }

func benchReconstruct(b *testing.B, k, h, lose, size int) {
	code := rse.MustNew(k, h)
	rng := rand.New(rand.NewSource(2))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	parity := make([][]byte, h)
	if err := code.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	// Lost shards are recycled zero-length buffers: the benchmark measures
	// the steady-state receiver path (the l×l subsystem solve, zero
	// allocations).
	lostBuf := make([][]byte, lose)
	for i := range lostBuf {
		lostBuf[i] = make([]byte, size)
	}
	shards := make([][]byte, k+h)
	b.SetBytes(int64(k * size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < k; j++ {
			if j < lose {
				shards[j] = lostBuf[j][:0]
			} else {
				shards[j] = data[j]
			}
		}
		for j := 0; j < h; j++ {
			shards[k+j] = parity[j]
		}
		if err := code.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSEDecodeK7Lose1(b *testing.B)    { benchReconstruct(b, 7, 1, 1, 1024) }
func BenchmarkRSEDecodeK20Lose5(b *testing.B)   { benchReconstruct(b, 20, 5, 5, 1024) }
func BenchmarkRSEDecodeK100Lose20(b *testing.B) { benchReconstruct(b, 100, 20, 20, 1024) }

// --- Ablations (design choices from DESIGN.md) ---

// runTransfer runs a full protocol transfer on simnet and returns the
// sender's total data-plane transmissions per original packet.
func runTransfer(b *testing.B, useNP bool, proactive int, r int, p float64, seed int64) float64 {
	sched := simnet.NewScheduler()
	sched.MaxEvents = 50_000_000
	rng := rand.New(rand.NewSource(seed))
	net := simnet.NewNetwork(sched, rng)
	msg := make([]byte, 32<<10)
	rng.Read(msg)

	cfg := core.Config{Session: 1, K: 8, ShardSize: 256, Proactive: proactive}
	sn := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
	newSender, newReceiver := core.NewSender, core.NewReceiver
	if !useNP {
		newSender, newReceiver = core.NewSenderN2, core.NewReceiverN2
	}
	s, err := newSender(sn, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sn.SetHandler(s.HandlePacket)
	deliver := make([][]byte, r)
	for i := 0; i < r; i++ {
		node := net.AddNode(simnet.NodeConfig{
			Delay: 2 * time.Millisecond,
			Loss:  loss.NewBernoulli(p, rng),
		})
		rc, err := newReceiver(node, cfg)
		if err != nil {
			b.Fatal(err)
		}
		idx := i
		rc.OnComplete = func(m []byte) { deliver[idx] = m }
		node.SetHandler(rc.HandlePacket)
	}
	if err := s.Send(msg); err != nil {
		b.Fatal(err)
	}
	sched.Run()
	st := s.Stats()
	total, packets := st.DataTx+st.ParityTx, s.SourcePackets()
	for i, d := range deliver {
		if !bytes.Equal(d, msg) {
			b.Fatalf("receiver %d incomplete", i)
		}
	}
	return float64(total) / float64(packets)
}

// BenchmarkAblationParityVsARQ: the core design choice — repairing with
// parities (NP) versus retransmitting originals (N2).
func BenchmarkAblationParityVsARQ(b *testing.B) {
	var emNP, emN2 float64
	for i := 0; i < b.N; i++ {
		emNP = runTransfer(b, true, 0, 20, 0.05, 11)
		emN2 = runTransfer(b, false, 0, 20, 0.05, 11)
	}
	b.ReportMetric(emNP, "EM_NP")
	b.ReportMetric(emN2, "EM_N2")
	b.ReportMetric(emN2/emNP, "N2/NP")
}

// BenchmarkAblationProactive: reactive (a=0) versus proactive (a=2) parity
// transmission: proactive trades bandwidth for fewer feedback rounds.
func BenchmarkAblationProactive(b *testing.B) {
	var em0, em2 float64
	for i := 0; i < b.N; i++ {
		em0 = runTransfer(b, true, 0, 20, 0.05, 13)
		em2 = runTransfer(b, true, 2, 20, 0.05, 13)
	}
	b.ReportMetric(em0, "EM_a0")
	b.ReportMetric(em2, "EM_a2")
}

// BenchmarkAblationTGSize: integrated FEC under burst loss for growing TG
// sizes — the "large k replaces interleaving" result of Section 4.2.
func BenchmarkAblationTGSize(b *testing.B) {
	var em7, em20, em100 float64
	for i := 0; i < b.N; i++ {
		mk := func(seed int64) loss.Population {
			return loss.NewIndependentMarkov(200, 0.01, 2, 25, rand.New(rand.NewSource(seed)))
		}
		em7 = sim.Integrated2(mk(1), 7, sim.PaperTiming, 300).Mean
		em20 = sim.Integrated2(mk(2), 20, sim.PaperTiming, 150).Mean
		em100 = sim.Integrated2(mk(3), 100, sim.PaperTiming, 60).Mean
	}
	b.ReportMetric(em7, "EM_k7")
	b.ReportMetric(em20, "EM_k20")
	b.ReportMetric(em100, "EM_k100")
}

// BenchmarkAblationFeedback: per-TG NAKs (NP) versus per-packet NAKs (N2):
// feedback messages arriving at the sender per delivered packet.
func BenchmarkAblationFeedback(b *testing.B) {
	var nakNP, nakN2 float64
	for i := 0; i < b.N; i++ {
		sched := simnet.NewScheduler()
		sched.MaxEvents = 50_000_000
		rng := rand.New(rand.NewSource(17))
		net := simnet.NewNetwork(sched, rng)
		msg := make([]byte, 32<<10)
		rng.Read(msg)
		cfg := core.Config{Session: 1, K: 8, ShardSize: 256}

		sn := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
		s, err := core.NewSender(sn, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sn.SetHandler(s.HandlePacket)
		for j := 0; j < 20; j++ {
			node := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond,
				Loss: loss.NewBernoulli(0.05, rng)})
			rc, err := core.NewReceiver(node, cfg)
			if err != nil {
				b.Fatal(err)
			}
			node.SetHandler(rc.HandlePacket)
		}
		if err := s.Send(msg); err != nil {
			b.Fatal(err)
		}
		sched.Run()
		nakNP = float64(s.Stats().NakRx) / float64(s.Groups()*cfg.K)
		nakN2 = runTransferNakRate(b, 17)
	}
	b.ReportMetric(nakNP, "naks/pkt_NP")
	b.ReportMetric(nakN2, "naks/pkt_N2")
}

func runTransferNakRate(b *testing.B, seed int64) float64 {
	sched := simnet.NewScheduler()
	sched.MaxEvents = 50_000_000
	rng := rand.New(rand.NewSource(seed))
	net := simnet.NewNetwork(sched, rng)
	msg := make([]byte, 32<<10)
	rng.Read(msg)
	cfg := core.Config{Session: 1, K: 8, ShardSize: 256}
	sn := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
	s, err := core.NewSenderN2(sn, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sn.SetHandler(s.HandlePacket)
	for j := 0; j < 20; j++ {
		node := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond,
			Loss: loss.NewBernoulli(0.05, rng)})
		rc, err := core.NewReceiverN2(node, cfg)
		if err != nil {
			b.Fatal(err)
		}
		node.SetHandler(rc.HandlePacket)
	}
	if err := s.Send(msg); err != nil {
		b.Fatal(err)
	}
	sched.Run()
	return float64(s.Stats().NakRx) / float64(s.SourcePackets())
}

// BenchmarkProtocolTransfer measures end-to-end simulated-transfer speed:
// bytes of payload reliably delivered to 20 lossy receivers per second of
// real (host) time.
func BenchmarkProtocolTransfer(b *testing.B) {
	b.SetBytes(32 << 10)
	for i := 0; i < b.N; i++ {
		runTransfer(b, true, 0, 20, 0.05, int64(100+i))
	}
}

// BenchmarkModelIntegrated measures the closed-form evaluation cost at the
// paper's largest population.
func BenchmarkModelIntegrated(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		v = model.ExpectedTxIntegrated(7, 0, 1_000_000, 0.01)
	}
	b.ReportMetric(v, "EM@1e6")
}

// BenchmarkAblationInterleaving: the classical burst-loss countermeasure
// for layered FEC — spreading each block over depth slots — versus plain
// layered FEC and the independent-loss value it converges to.
func BenchmarkAblationInterleaving(b *testing.B) {
	var d1, d4, d8 float64
	for i := 0; i < b.N; i++ {
		mk := func(seed int64) loss.Population {
			return loss.NewIndependentMarkov(100, 0.01, 2, 25, rand.New(rand.NewSource(seed)))
		}
		d1 = sim.LayeredInterleaved(mk(1), 7, 1, 1, sim.PaperTiming, 1500).Mean
		d4 = sim.LayeredInterleaved(mk(2), 7, 1, 4, sim.PaperTiming, 1500).Mean
		d8 = sim.LayeredInterleaved(mk(3), 7, 1, 8, sim.PaperTiming, 1500).Mean
	}
	b.ReportMetric(d1, "EM_depth1")
	b.ReportMetric(d4, "EM_depth4")
	b.ReportMetric(d8, "EM_depth8")
	b.ReportMetric(model.ExpectedTxLayered(7, 1, 100, 0.01), "EM_indep_model")
}

// BenchmarkAblationAdaptive: NAK-driven adaptive proactive parities versus
// a static reactive sender, on the live protocol stack.
func BenchmarkAblationAdaptive(b *testing.B) {
	run := func(adaptive bool) (float64, float64) {
		sched := simnet.NewScheduler()
		sched.MaxEvents = 50_000_000
		rng := rand.New(rand.NewSource(19))
		net := simnet.NewNetwork(sched, rng)
		msg := make([]byte, 64<<10)
		rng.Read(msg)
		cfg := core.Config{Session: 1, K: 8, ShardSize: 256, Adaptive: adaptive}
		sn := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
		s, err := core.NewSender(sn, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sn.SetHandler(s.HandlePacket)
		for j := 0; j < 15; j++ {
			node := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond,
				Loss: loss.NewBernoulli(0.08, rng)})
			rc, err := core.NewReceiver(node, cfg)
			if err != nil {
				b.Fatal(err)
			}
			node.SetHandler(rc.HandlePacket)
		}
		if err := s.Send(msg); err != nil {
			b.Fatal(err)
		}
		sched.Run()
		st := s.Stats()
		pkts := float64(s.Groups() * cfg.K)
		return float64(st.DataTx+st.ParityTx) / pkts, float64(st.NakServed)
	}
	var emS, emA, nakS, nakA float64
	for i := 0; i < b.N; i++ {
		emS, nakS = run(false)
		emA, nakA = run(true)
	}
	b.ReportMetric(emS, "EM_static")
	b.ReportMetric(emA, "EM_adaptive")
	b.ReportMetric(nakS, "nakRounds_static")
	b.ReportMetric(nakA, "nakRounds_adaptive")
}

// BenchmarkAblationTopology extends Figs 11/12's shared-loss observation:
// the deeper/narrower the tree (more path sharing), the fewer
// transmissions integrated FEC needs at equal per-receiver loss — a star
// (independent) is the worst case, a high-degree shallow tree sits in
// between.
func BenchmarkAblationTopology(b *testing.B) {
	const p = 0.01
	var star, deg4, deg2 float64
	for i := 0; i < b.N; i++ {
		// All three populations have 64 receivers at per-receiver loss p.
		indep := loss.NewIndependentBernoulli(64, p, rand.New(rand.NewSource(31)))
		t4, err := loss.NewUniformTree(4, 3, p, rand.New(rand.NewSource(32))) // 4^3 = 64 leaves
		if err != nil {
			b.Fatal(err)
		}
		t2, err := loss.NewUniformTree(2, 6, p, rand.New(rand.NewSource(33))) // 2^6 = 64 leaves
		if err != nil {
			b.Fatal(err)
		}
		star = sim.Integrated2(indep, 7, sim.PaperTiming, 3000).Mean
		deg4 = sim.Integrated2(t4, 7, sim.PaperTiming, 3000).Mean
		deg2 = sim.Integrated2(t2, 7, sim.PaperTiming, 3000).Mean
	}
	b.ReportMetric(star, "EM_star_indep")
	b.ReportMetric(deg4, "EM_tree_deg4")
	b.ReportMetric(deg2, "EM_tree_deg2")
}

// BenchmarkAblationSymbolSize: GF(2^8) vs GF(2^16) coder cost at identical
// (k, h) — the Section-2.2 symbol-size trade-off in numbers. The wide
// field pays roughly 2-4x per byte (log/exp lookups instead of a product
// table) and buys block sizes beyond 256 packets.
func BenchmarkAblationSymbolSize(b *testing.B) {
	const k, h, size = 20, 5, 1024
	rng := rand.New(rand.NewSource(51))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	b.Run("gf8", func(b *testing.B) {
		code := rse.MustNew(k, h)
		parity := make([][]byte, h)
		b.SetBytes(k * size)
		for i := 0; i < b.N; i++ {
			if err := code.Encode(data, parity); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gf16", func(b *testing.B) {
		code, err := rse16.New(k, h)
		if err != nil {
			b.Fatal(err)
		}
		parity := make([][]byte, h)
		b.SetBytes(k * size)
		for i := 0; i < b.N; i++ {
			if err := code.Encode(data, parity); err != nil {
				b.Fatal(err)
			}
		}
	})
}
