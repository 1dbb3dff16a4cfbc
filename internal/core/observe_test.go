package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"rmfec/internal/loss"
	"rmfec/internal/metrics"
	"rmfec/internal/model"
)

// jsonSnapshot reads the registry back through its JSON exposition, so the
// reconciliation below exercises the same path an operator scrapes.
func jsonSnapshot(t *testing.T, reg *metrics.Registry) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]any)
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func counterValue(t *testing.T, snap map[string]any, series string) uint64 {
	t.Helper()
	v, ok := snap[series]
	if !ok {
		t.Fatalf("series %q missing from snapshot", series)
	}
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("series %q is %T, want a number", series, v)
	}
	return uint64(f)
}

// TestMetricsReconcileWithStats runs a lossy transfer with the full
// instrument set attached and cross-checks every live counter against the
// engines' own post-hoc Stats() — the two bookkeeping systems share no
// code, so agreement means neither drifted.
func TestMetricsReconcileWithStats(t *testing.T) {
	reg := metrics.NewRegistry()
	tracer := metrics.NewTracer(1 << 12)
	cfg := baseConfig()
	cfg.Metrics = reg
	cfg.Trace = tracer
	h := newHarness(t, harnessOpts{
		r:   5,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(0.05, rng)
		},
		seed: 901,
	})
	h.net.Instrument(reg)
	msg := testMessage(12000, 902)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	h.sender.Close() // flush the per-TG transmissions histogram

	st := h.sender.Stats()
	m := h.sender.m
	checks := []struct {
		name string
		got  uint64
		want int
	}{
		{"dataTx", m.dataTx.Value(), st.DataTx},
		{"parityTx", m.parityTx.Value(), st.ParityTx},
		{"pollTx", m.pollTx.Value(), st.PollTx},
		{"nakRx", m.nakRx.Value(), st.NakRx},
		{"serviceRounds", m.serviceRounds.Value(), st.NakServed},
		{"encoded", m.encoded.Value(), st.Encoded},
		{"groups", m.groups.Value(), h.sender.Groups()},
		{"sourcePkts", m.sourcePkts.Value(), h.sender.Groups() * cfg.K},
	}
	for _, c := range checks {
		if c.got != uint64(c.want) {
			t.Errorf("sender metric %s = %d, Stats says %d", c.name, c.got, c.want)
		}
	}

	// The per-TG histogram sums to exactly the data+parity transmissions.
	tg := m.tgTx.Snapshot()
	if tg.Count != uint64(h.sender.Groups()) {
		t.Errorf("tgTx histogram has %d samples, want one per group (%d)", tg.Count, h.sender.Groups())
	}
	if got, want := tg.Sum, float64(st.DataTx+st.ParityTx); got != want {
		t.Errorf("tgTx histogram sum = %v, want DataTx+ParityTx = %v", got, want)
	}

	// All receivers registered against the same registry, so the receiver
	// series aggregate across the population; sum the engines' stats.
	var rs ReceiverStats
	for _, rc := range h.receivers {
		s := rc.Stats()
		rs.DataRx += s.DataRx
		rs.ParityRx += s.ParityRx
		rs.DupRx += s.DupRx
		rs.Decodes += s.Decodes
		rs.NakTx += s.NakTx
		rs.NakSupp += s.NakSupp
		rs.PollRx += s.PollRx
		rs.Groups += s.Groups
	}
	rm := h.receivers[0].m
	rchecks := []struct {
		name string
		got  uint64
		want int
	}{
		{"dataRx", rm.dataRx.Value(), rs.DataRx},
		{"parityRx", rm.parityRx.Value(), rs.ParityRx},
		{"dupRx", rm.dupRx.Value(), rs.DupRx},
		{"decodes", rm.decodes.Value(), rs.Decodes},
		{"nakSent", rm.nakSent.Value(), rs.NakTx},
		{"nakSupp", rm.nakSupp.Value(), rs.NakSupp},
		{"pollRx", rm.pollRx.Value(), rs.PollRx},
		{"deliveries", rm.deliveries.Value(), len(h.receivers)},
	}
	for _, c := range rchecks {
		if c.got != uint64(c.want) {
			t.Errorf("receiver metric %s = %d, summed Stats say %d", c.name, c.got, c.want)
		}
	}
	if got := rm.recovery.Snapshot().Count; got != uint64(rs.Groups) {
		t.Errorf("recovery histogram has %d samples, stats counted %d groups", got, rs.Groups)
	}

	// Network-level accounting, read back through the JSON exposition.
	snap := jsonSnapshot(t, reg)
	sent, delivered, dropped := h.net.Stats()
	if got := counterValue(t, snap, "simnet_net_tx_total"); got != sent {
		t.Errorf("simnet_net_tx_total = %d, network counted %d", got, sent)
	}
	if got := counterValue(t, snap, `simnet_net_rx_total{result="delivered"}`); got != delivered {
		t.Errorf("delivered series = %d, network counted %d", got, delivered)
	}
	if got := counterValue(t, snap, `simnet_net_rx_total{result="dropped"}`); got != dropped {
		t.Errorf("dropped series = %d, network counted %d", got, dropped)
	}
	if dropped == 0 {
		t.Error("5% loss produced no drops; the reconciliation proved nothing")
	}

	// The tracer saw the protocol: NAKs were multicast and groups decoded.
	kinds := make(map[string]int)
	for _, ev := range tracer.Snapshot() {
		kinds[ev.Kind]++
	}
	for _, want := range []string{TraceNakTx, TraceNakRx, TraceServiceRound, TraceDecode, TraceDeliver} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %q events under loss; kinds seen: %v", want, kinds)
		}
	}
	if kinds[TraceDeliver] != len(h.receivers) {
		t.Errorf("trace has %d deliver events, want %d", kinds[TraceDeliver], len(h.receivers))
	}
}

// TestLiveEMMatchesAnalyticModel is the end-to-end calibration check of
// the observability layer: the live E[M] that an operator would read off
// np_sender_tg_transmissions (mean/k) must agree with the paper's analytic
// expectation within 3 standard errors at an operating point where the
// implemented protocol matches the idealized model. R = 1 is that point:
// with a single receiver there are no cross-receiver feedback races, the
// NAK asks for the exact deficit and the sender serves exactly it, which
// is the process ExpectedTxIntegratedFinite integrates.
func TestLiveEMMatchesAnalyticModel(t *testing.T) {
	const (
		k = 8
		p = 0.05
	)
	reg := metrics.NewRegistry()
	cfg := baseConfig()
	cfg.Metrics = reg
	h := newHarness(t, harnessOpts{
		r:   1,
		cfg: cfg,
		mkLoss: func(rng *rand.Rand) loss.Process {
			return loss.NewBernoulli(p, rng)
		},
		seed: 911,
	})
	// ~250 groups: enough samples for a tight standard error without
	// making the virtual-time run slow.
	msg := testMessage(250*k*cfg.ShardSize, 912)
	h.run(t, msg)
	h.checkDelivered(t, msg)
	h.sender.Close()

	tg := h.sender.m.tgTx.Snapshot()
	if tg.Count < 200 {
		t.Fatalf("only %d TG samples", tg.Count)
	}
	liveEM := tg.Mean / k
	se := tg.StdErr() / k
	want := model.ExpectedTxIntegratedFinite(k, h.sender.cfg.MaxParity, 0, 1, p)
	if se <= 0 || math.IsNaN(se) {
		t.Fatalf("degenerate standard error %v", se)
	}
	if diff := math.Abs(liveEM - want); diff > 3*se {
		t.Errorf("live E[M] = %.4f (SE %.4f) vs analytic %.4f: |diff| = %.4f > 3 SE = %.4f",
			liveEM, se, want, diff, 3*se)
	}
}

// TestRacingReceiversMeetModel is the same reconciliation where receivers
// race: eight of them at 5 % Bernoulli loss, k = h = 20, a = 0 — the
// lossy_decode working point — whose NAKs for one round can cross in
// flight when they share a slot. The sender serves each NAK only beyond
// the repairs queued since the POLL it echoes, so a raced round is not
// bought twice, and per-group E[M] over 400 groups must lie within 3 SE of
// the closed form at R = 8. Serving a raced NAK against the queue alone
// read 1.1805 here, 13 SE above it, when every deficit up to 4 shared the
// last slot.
func TestRacingReceiversMeetModel(t *testing.T) {
	var sum, sumSq float64
	n := 0
	racingTransfers(t, func(s *Sender) {
		for _, g := range s.GroupTrace() {
			em := float64(g.TxCount) / racingK
			sum += em
			sumSq += em * em
			n++
		}
	})
	mean := sum / float64(n)
	se := math.Sqrt((sumSq-sum*sum/float64(n))/float64(n-1)) / math.Sqrt(float64(n))
	want := model.ExpectedTxIntegratedFinite(racingK, racingK, 0, racingR, racingP)
	t.Logf("E[M] = %.4f (SE %.4f, %d groups) vs analytic %.4f", mean, se, n, want)
	if diff := mean - want; math.Abs(diff) > 3*se {
		t.Errorf("E[M] is %+.1f SE from the model, want within 3", diff/se)
	}
}

// The racing working point: lossy_decode's k = h = 20, a = 0, R = 8 at 5 %
// Bernoulli loss.
const (
	racingK, racingR = 20, 8
	racingP          = 0.05
)

// racingTransfers runs the racing working point over 100 groups on each of
// four seeds and hands fn every sender once its transfer is delivered.
func racingTransfers(t *testing.T, fn func(s *Sender)) {
	t.Helper()
	const groups = 100 // per seed
	for seed := int64(2801); seed < 2805; seed++ {
		cfg := baseConfig()
		cfg.K, cfg.MaxParity = racingK, racingK
		h := newHarness(t, harnessOpts{r: racingR, cfg: cfg, seed: seed,
			mkLoss: func(rng *rand.Rand) loss.Process { return loss.NewBernoulli(racingP, rng) }})
		msg := testMessage(groups*racingK*cfg.ShardSize, seed+100)
		h.run(t, msg)
		h.checkDelivered(t, msg)
		fn(h.sender)
	}
}

// TestRacingReceiversNakWorstFirst pins the NAK slotting of §5.1 at the
// racing working point: a round of 20 is slotted as one of MaxNakSlots
// (16), so deficits 1 … 16 each get their own slot, the receiver missing
// most answers first and its NAK damps the rest. Capping the slot index
// instead put every deficit up to 4 — nearly all of them at 5 % loss — in
// the last slot, where damping came down to jitter, and read 3.17 NAKs per
// group here; the rule as it stands reads 1.49.
func TestRacingReceiversNakWorstFirst(t *testing.T) {
	var naks, groups int
	racingTransfers(t, func(s *Sender) {
		naks += s.Stats().NakRx
		groups += s.Groups()
	})
	perGroup := float64(naks) / float64(groups)
	t.Logf("%.3f NAKs per group over %d groups", perGroup, groups)
	if perGroup > 1.8 {
		t.Errorf("%.3f NAKs per group at R = %d, want ≤ 1.8: the worst deficit no longer answers first", perGroup, racingR)
	}
}
