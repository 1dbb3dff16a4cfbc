package field_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/field"
	"rmfec/internal/loss"
	"rmfec/internal/mcrun"
	"rmfec/internal/metrics"
	"rmfec/internal/model"
	"rmfec/internal/simnet"
)

// fieldRun wires one NP sender and one aggregate-mode Field onto a
// simulated network and runs a full transfer to completion.
type fieldRun struct {
	field  *field.Field
	sender *core.Sender
	trace  *metrics.Tracer
}

func runAggregateField(t testing.TB, pcfg core.Config, groups int,
	pop loss.Population, netSeed, fieldSeed int64) *fieldRun {
	t.Helper()
	sched := simnet.NewScheduler()
	sched.MaxEvents = 100_000_000
	net := simnet.NewNetwork(sched, rand.New(rand.NewSource(netSeed)))

	tr := metrics.NewTracer(1 << 16)
	pcfg.Trace = tr
	senderNode := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
	sender, err := core.NewSender(senderNode, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	senderNode.SetHandler(sender.HandlePacket)

	fieldNode := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
	f, err := field.New(fieldNode, field.Config{
		Protocol:   pcfg,
		Population: pop,
		Seed:       fieldSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	fieldNode.SetHandler(f.HandlePacket)

	msg := testMessage(groups*pcfg.K*pcfg.ShardSize, 5)
	if err := sender.Send(msg); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	return &fieldRun{field: f, sender: sender, trace: tr}
}

// TestFieldEMReconciliation pins the field-run transmission multiplicity
// against the paper's closed form: the measured E[M] of an aggregate-mode
// transfer must sit within 3 standard errors of
// model.ExpectedTxIntegratedFinite. The aggregate NAK schedule implements
// the model's iteration exactly — each round the sender learns the true
// worst deficit — so the only gap is Monte-Carlo noise over groups.
func TestFieldEMReconciliation(t *testing.T) {
	const (
		k      = 8
		h      = 32
		r      = 2000
		p      = 0.05
		groups = 300
	)
	pcfg := core.Config{Session: 3, K: k, MaxParity: h, Proactive: 0, ShardSize: 32}
	pop := loss.NewBernoulliPopulation(r, p, rand.New(rand.NewSource(404)))
	run := runAggregateField(t, pcfg, groups, pop, 21, 84)

	if !run.field.Complete() {
		t.Fatalf("transfer incomplete: %+v", run.field.Stats())
	}
	mean, se := run.field.EM()
	want := model.ExpectedTxIntegratedFinite(k, h, 0, r, p)
	if se <= 0 {
		t.Fatalf("degenerate SE %g (mean %g)", se, mean)
	}
	if d := math.Abs(mean - want); d > 3*se {
		t.Fatalf("field E[M] = %.4f +- %.4f (SE), model = %.4f: off by %.1f SE",
			mean, se, want, d/se)
	}
	t.Logf("field E[M] = %.4f +- %.4f, model = %.4f (%d groups, R=%d)", mean, se, want, groups, r)
}

// perPacketPopulation hides a population's SubsetPopulation methods, so
// the field draws every packet (DrawLost) over all R instead of keeping
// each group's deficient receivers as counts.
type perPacketPopulation struct{ loss.Population }

// TestFieldRoundDrawMatchesPerPacket checks the count path against the
// per-packet path it replaces, end to end: over 20 seeds of a 40-group
// transfer to R = 2000 receivers at p = 5 % (k = 8, a = 2), the mean E[M]
// and NAKs per group of the two paths agree within 3 combined standard
// errors over seeds. The per-packet path must also have drawn more losses:
// otherwise the wrapper did not reach it.
func TestFieldRoundDrawMatchesPerPacket(t *testing.T) {
	pcfg := core.Config{Session: 7, K: 8, MaxParity: 16, Proactive: 2, ShardSize: 16}
	st := comparePaths(t, pcfg, 40, 2000, 0.05)
	if st[0].Losses >= st[1].Losses {
		t.Fatalf("counts drew %d losses, per-packet %d: the per-packet path was not taken", st[0].Losses, st[1].Losses)
	}
}

// TestFieldMaterialisesAtParityExhaustion drives groups past their last
// parity (k = 8, h = 2 at p = 20 %, R = 2000), where the sender resends
// shards a receiver may already hold and the count path materialises its
// receivers: E[M] and NAKs per group must still agree with the per-packet
// path within 3 combined SE over 20 seeds, and resends must have happened.
func TestFieldMaterialisesAtParityExhaustion(t *testing.T) {
	pcfg := core.Config{Session: 8, K: 8, MaxParity: 2, ShardSize: 16}
	if st := comparePaths(t, pcfg, 40, 2000, 0.2); st[0].DupRx == 0 {
		t.Fatal("no shard was resent: parity exhaustion untested")
	}
}

// comparePaths runs 20 seeds of a transfer of groups groups at pcfg to r
// Bernoulli(p) receivers on the count path (index 0) and the per-packet
// path (1), demands mean E[M] and NAKs per group agree within 3 combined
// SE over seeds, and returns each path's summed stats.
func comparePaths(t *testing.T, pcfg core.Config, groups, r int, p float64) (st [2]field.Stats) {
	const seeds = 20
	var em, naks [2][]float64
	for i := range seeds {
		for path := range 2 {
			var pop loss.Population = loss.NewBernoulliPopulation(r, p, rand.New(rand.NewSource(int64(1000+i))))
			if path == 1 {
				pop = perPacketPopulation{pop}
			}
			run := runAggregateField(t, pcfg, groups, pop, int64(2000+i), int64(3000+i))
			if !run.field.Complete() {
				t.Fatalf("seed %d path %d: transfer incomplete", i, path)
			}
			mean, _ := run.field.EM()
			s := run.field.Stats()
			em[path] = append(em[path], mean)
			naks[path] = append(naks[path], float64(s.NakTx)/float64(groups))
			st[path].Losses += s.Losses
			st[path].DupRx += s.DupRx
		}
	}
	meanSE := func(xs []float64) (mean, se float64) {
		var sum, ss float64
		for _, x := range xs {
			sum += x
			ss += x * x
		}
		n := float64(len(xs))
		mean = sum / n
		return mean, math.Sqrt((ss - sum*sum/n) / (n - 1) / n)
	}
	for _, c := range []struct {
		name string
		v    [2][]float64
	}{{"E[M]", em}, {"NAKs per group", naks}} {
		m0, se0 := meanSE(c.v[0])
		m1, se1 := meanSE(c.v[1])
		d := math.Abs(m0-m1) / math.Hypot(se0, se1)
		t.Logf("%s: counts %.4f +- %.4f, per-packet %.4f +- %.4f: %.1f SE", c.name, m0, se0, m1, se1, d)
		if d > 3 {
			t.Errorf("%s: counts %.4f +- %.4f vs per-packet %.4f +- %.4f: %.1f SE apart", c.name, m0, se0, m1, se1, d)
		}
	}
	return st
}

// TestFieldEMAcrossR holds the count path to the finite-h closed form as R
// grows by nine decades: at (k, h, a, p) = (20, 24, 2, 1 %), 400 groups per
// R, E[M] within 3 SE of model.ExpectedTxIntegratedFinite at R = 10^3,
// 10^6, 10^9 and 10^12. A group costs O(k) draws per round at any R, so
// each R runs in the same few milliseconds.
func TestFieldEMAcrossR(t *testing.T) {
	const k, h, a, p, groups = 20, 24, 2, 0.01, 400
	pcfg := core.Config{Session: 4, K: k, MaxParity: h, Proactive: a, ShardSize: 16}
	for i, r := range []int{1e3, 1e6, 1e9, 1e12} {
		pop := loss.NewBernoulliPopulation(r, p, rand.New(rand.NewSource(int64(70+i))))
		start := time.Now()
		run := runAggregateField(t, pcfg, groups, pop, int64(80+i), int64(90+i))
		if !run.field.Complete() {
			t.Fatalf("R=%d: transfer incomplete: %+v", r, run.field.Stats())
		}
		mean, se := run.field.EM()
		want := model.ExpectedTxIntegratedFinite(k, h, a, r, p)
		t.Logf("R=%.0e: E[M] = %.4f +- %.4f, model %.4f (%.1f SE), %v", float64(r), mean, se, want, (mean-want)/se, time.Since(start))
		if se <= 0 || math.Abs(mean-want) > 3*se {
			t.Errorf("R=%d: E[M] = %.4f +- %.4f, model %.4f", r, mean, se, want)
		}
	}
}

// nakSchedule extracts the (time, group, deficit) triples of every NAK
// the field multicast, in order.
func nakSchedule(tr *metrics.Tracer) []string {
	var out []string
	for _, ev := range tr.Snapshot() {
		if ev.Kind == core.TraceNakTx {
			out = append(out, fmt.Sprintf("%d/%d/%d", ev.At, ev.A, ev.B))
		}
	}
	return out
}

// TestFieldNakDeterminism is the suppression-determinism contract: the
// aggregate NAK backoff/jitter timers draw from the label-derived
// mcrun.DeriveSeed chain, so the complete NAK schedule is a pure function
// of the configured seed — identical across runs and at any worker-pool
// parallelism.
func TestFieldNakDeterminism(t *testing.T) {
	pcfg := core.Config{Session: 11, K: 8, MaxParity: 24, Proactive: 0, ShardSize: 16}
	const groups = 40
	oneRun := func() []string {
		pop := loss.NewBernoulliPopulation(1000, 0.03, rand.New(rand.NewSource(1234)))
		run := runAggregateField(t, pcfg, groups, pop, 9, 1<<40)
		if !run.field.Complete() {
			t.Errorf("transfer incomplete")
		}
		return nakSchedule(run.trace)
	}

	base := oneRun()
	if len(base) == 0 {
		t.Fatal("no NAKs fired; determinism untested")
	}
	// Same schedule when the simulation re-runs serially, and when many
	// copies run concurrently on mcrun's worker pool.
	for _, workers := range []int{1, 4} {
		jobs := make([]func() []string, 6)
		for i := range jobs {
			jobs[i] = oneRun
		}
		for i, got := range mcrun.Run(workers, jobs) {
			if len(got) != len(base) {
				t.Fatalf("workers=%d job %d: %d NAKs vs %d in base run", workers, i, len(got), len(base))
			}
			for j := range got {
				if got[j] != base[j] {
					t.Fatalf("workers=%d job %d: NAK %d = %s, base %s", workers, i, j, got[j], base[j])
				}
			}
		}
	}
}

// TestFieldSmokeR100k is the check.sh field smoke tier: a full NP
// transfer to 1e5 receivers, reconciled against the model, fast enough
// for the -short budget.
func TestFieldSmokeR100k(t *testing.T) {
	const (
		k      = 20
		h      = 24
		a      = 2
		r      = 100_000
		p      = 0.01
		groups = 12
	)
	pcfg := core.Config{Session: 5, K: k, MaxParity: h, Proactive: a, ShardSize: 16}
	pop := loss.NewBernoulliPopulation(r, p, rand.New(rand.NewSource(31)))
	run := runAggregateField(t, pcfg, groups, pop, 62, 93)

	st := run.field.Stats()
	if !run.field.Complete() {
		t.Fatalf("R=1e5 transfer incomplete: %+v", st)
	}
	if st.GroupsDone != groups {
		t.Fatalf("GroupsDone = %d, want %d", st.GroupsDone, groups)
	}
	mean, _ := run.field.EM()
	want := model.ExpectedTxIntegratedFinite(k, h, a, r, p)
	// Few groups: allow a generous band, the tight pin is TestFieldEMReconciliation.
	if mean < float64(k+a)/float64(k) || mean > 2*want {
		t.Fatalf("implausible E[M] %.3f (model %.3f)", mean, want)
	}
	// Feedback stayed O(groups): a handful of NAK rounds per group, not O(R).
	if st.NakTx > uint64(groups*16) {
		t.Fatalf("NakTx = %d for %d groups; feedback is not aggregated", st.NakTx, groups)
	}
	t.Logf("R=1e5: E[M]=%.4f (model %.4f), naks=%d, suppressed=%d, maxActive=%d",
		mean, want, st.NakTx, st.NakSupp, st.MaxActive)
}

// TestFieldMillionReceivers is the acceptance run: one deterministic
// simnet transfer to R=1e6 receivers, E[M] within 3 SE of the closed
// form. Skipped under -short; the field_1e6 ledger workload times it.
func TestFieldMillionReceivers(t *testing.T) {
	if testing.Short() {
		t.Skip("R=1e6 full transfer is the long acceptance run")
	}
	const (
		k      = 20
		h      = 24
		a      = 2
		r      = 1_000_000
		p      = 0.01
		groups = 24
	)
	pcfg := core.Config{Session: 6, K: k, MaxParity: h, Proactive: a, ShardSize: 16}
	pop := loss.NewBernoulliPopulation(r, p, rand.New(rand.NewSource(8080)))
	run := runAggregateField(t, pcfg, groups, pop, 13, 26)

	st := run.field.Stats()
	if !run.field.Complete() {
		t.Fatalf("R=1e6 transfer incomplete: %+v", st)
	}
	mean, se := run.field.EM()
	want := model.ExpectedTxIntegratedFinite(k, h, a, r, p)
	if se > 0 {
		if d := math.Abs(mean - want); d > 3*se {
			t.Fatalf("field E[M] = %.4f +- %.4f, model = %.4f: off by %.1f SE", mean, se, want, d/se)
		}
	}
	t.Logf("R=1e6: E[M]=%.4f +- %.4f (model %.4f), losses=%d, naks=%d, suppressed=%d",
		mean, se, want, st.Losses, st.NakTx, st.NakSupp)
}

// TestFieldMetrics checks the np_field_* instrument set against the
// engine's own counters after a live transfer.
func TestFieldMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	pcfg := core.Config{Session: 2, K: 8, MaxParity: 16, Proactive: 0, ShardSize: 16, Metrics: reg}
	pop := loss.NewBernoulliPopulation(500, 0.05, rand.New(rand.NewSource(7)))
	run := runAggregateField(t, pcfg, 20, pop, 3, 4)
	st := run.field.Stats()
	if !run.field.Complete() {
		t.Fatalf("incomplete: %+v", st)
	}
	want := map[string]uint64{
		"np_field_losses_total":                    st.Losses,
		`np_field_naks_total{result="sent"}`:       st.NakTx,
		`np_field_naks_total{result="suppressed"}`: st.NakSupp,
		"np_field_groups_done_total":               uint64(st.GroupsDone),
		"np_field_deliveries_total":                uint64(st.Population),
	}
	got := registryValues(t, reg)
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	if got["np_field_population"] != uint64(st.Population) {
		t.Errorf("np_field_population = %d, want %d", got["np_field_population"], st.Population)
	}
}

// registryValues flattens a registry's JSON exposition into series->value
// for the counter and gauge series.
func registryValues(t *testing.T, reg *metrics.Registry) map[string]uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint64)
	for id, v := range raw {
		if f, ok := v.(float64); ok {
			out[id] = uint64(f)
		}
	}
	return out
}

// TestFieldConfigValidation pins the constructor's bitmap and population
// guards.
func TestFieldConfigValidation(t *testing.T) {
	env := simnet.NewNetwork(simnet.NewScheduler(), rand.New(rand.NewSource(1))).
		AddNode(simnet.NodeConfig{})
	pop := loss.NewBernoulliPopulation(10, 0.1, rand.New(rand.NewSource(2)))

	if _, err := field.New(env, field.Config{Population: pop,
		Protocol: core.Config{Session: 1, K: 20, ShardSize: 16}}); err == nil {
		t.Fatal("K=20 with default MaxParity must exceed the 64-shard bitmap limit")
	}
	if _, err := field.New(env, field.Config{
		Protocol: core.Config{Session: 1, K: 8, MaxParity: 16, ShardSize: 16}}); err == nil {
		t.Fatal("nil Population must be rejected")
	}
	if f, err := field.New(env, field.Config{Population: pop,
		Protocol: core.Config{Session: 1, K: 20, MaxParity: 44, ShardSize: 16}}); err != nil || f == nil {
		t.Fatalf("K=20 h=44 should fit the bitmap exactly: %v", err)
	}
}
