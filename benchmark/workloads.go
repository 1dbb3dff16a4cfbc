package main

// The six workloads and the construction of one transfer of each. A
// transfer is a complete NP session on the in-process simnet medium
// (virtual time; no socket, no loopback interface): one core.Sender, and
// either R core.Receiver instances each behind its own loss process or one
// field.Field fronting a loss.Population. Everything random in a transfer
// derives from its one seed through mcrun.DeriveSeed.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rmfec/internal/adapt"
	"rmfec/internal/core"
	"rmfec/internal/field"
	"rmfec/internal/loss"
	"rmfec/internal/mcrun"
	"rmfec/internal/simnet"
)

const (
	nodeDelay = 2 * time.Millisecond
	session   = 11
	// pacing is the sender's gap between packets in virtual time; a
	// transfer of n source packets cannot complete in less than n*pacing.
	pacing = time.Millisecond
	// shiftAfter is how many arrivals each adaptive_shift receiver sees
	// under the calm regime before the bursty one starts.
	shiftAfter = 2700
)

// workload is one set of transfer inputs. protoN is the number of
// transfers whose counters form the exact-repeat protocol metrics; the
// timed loop may run more of them to fill its measuring time, but those
// only add timing samples.
type workload struct {
	name      string
	receivers int // core.Receiver instances; 0 when a field fronts the population
	fieldR    int // field population size
	k, h, a   int
	shard     int
	msgBytes  int
	lossP     float64 // independent Bernoulli loss per receiver
	pipelined bool
	adaptive  bool
	protoN    int
}

var workloads = []workload{
	{name: "clean_64b", receivers: 4, k: 20, h: 5, shard: 64, msgBytes: 1 << 20, protoN: 24},
	{name: "clean_1k", receivers: 4, k: 20, h: 5, shard: 1024, msgBytes: 8 << 20, protoN: 24},
	{name: "proactive_encode", receivers: 1, k: 20, h: 5, a: 5, shard: 1024, msgBytes: 8 << 20, pipelined: true, protoN: 24},
	{name: "lossy_decode", receivers: 8, k: 20, h: 20, shard: 1024, msgBytes: 8 << 20, lossP: 0.05, protoN: 16},
	{name: "adaptive_shift", receivers: 8, shard: 1024, msgBytes: 8 << 20, adaptive: true, protoN: 16},
	{name: "field_1e6", fieldR: 1_000_000, k: 20, h: 24, a: 2, shard: 1024, msgBytes: 24 * 20 * 1024, lossP: 0.01, protoN: 24},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// config returns the protocol configuration both ends of a transfer share.
// depth0 turns the encode-ahead pipeline off on a workload that has it on.
func (w *workload) config(depth0 bool) core.Config {
	if w.adaptive {
		ac := adapt.DefaultConfig()
		ac.Ladder = adapt.PortfolioLadder()
		return core.Config{
			Session: session, ShardSize: w.shard, Delta: pacing,
			AdaptiveFEC: true, Adapt: ac, CodecGate: core.GateForce, NCRepair: true,
			Ts: 2 * time.Millisecond, MaxNakSlots: 4, ObserveLag: 6,
		}
	}
	cfg := core.Config{Session: session, K: w.k, MaxParity: w.h, Proactive: w.a, ShardSize: w.shard, Delta: pacing}
	if w.pipelined && !depth0 {
		cfg.Pipeline = core.PipelineConfig{Depth: 8, Workers: max(1, runtime.NumCPU()-1)}
	}
	return cfg
}

// shiftProcess is the adaptive_shift loss regime change: Bernoulli for the
// first `remaining` arrivals, Markov bursts after.
type shiftProcess struct {
	first, second loss.Process
	remaining     int
}

func (s *shiftProcess) Lost(dt float64) bool {
	if s.remaining > 0 {
		s.remaining--
		return s.first.Lost(dt)
	}
	return s.second.Lost(dt)
}

func (s *shiftProcess) Reset() { s.first.Reset(); s.second.Reset() }

// process returns receiver r's loss process, or nil on a clean workload.
func (w *workload) process(seed int64, r int) loss.Process {
	rng := rand.New(rand.NewSource(mcrun.DeriveSeed(seed, fmt.Sprintf("loss/%d", r))))
	switch {
	case w.adaptive:
		return &shiftProcess{
			first:     loss.NewBernoulli(0.005, rng),
			second:    loss.NewMarkov(0.08, 3, 1000, rng),
			remaining: shiftAfter,
		}
	case w.lossP > 0:
		return loss.NewBernoulli(w.lossP, rng)
	}
	return nil
}

// transfer is one constructed session, ready to drain.
type transfer struct {
	w      *workload
	tr     *tracer
	sched  *simnet.Scheduler
	net    *simnet.Network
	sender *core.Sender
	recvs  []*core.Receiver
	field  *field.Field
	msg    []byte

	delivered [][]byte        // per receiver, set by OnComplete
	doneAt    []time.Duration // virtual completion time per receiver (field: one entry)
}

// build constructs transfer number i of the run: scheduler, network, nodes,
// engines, loss and the message (written into msg, which the caller reuses
// across transfers). With tr set every layer boundary gets its shim.
func (w *workload) build(seed int64, msg []byte, tr *tracer, depth0 bool) (*transfer, error) {
	t := &transfer{w: w, tr: tr, msg: msg, sched: simnet.NewScheduler()}
	t.sched.MaxEvents = 500_000_000
	t.net = simnet.NewNetwork(t.sched, rand.New(rand.NewSource(mcrun.DeriveSeed(seed, "net"))))
	cfg := w.config(depth0)
	rand.New(rand.NewSource(mcrun.DeriveSeed(seed, "msg"))).Read(msg) // never fails

	env := func(n *simnet.Node, owner layer) core.Env {
		if tr == nil {
			return n
		}
		return &tracedEnv{Env: n, tr: tr, owner: owner}
	}
	handler := func(n *simnet.Node, owner layer, h func([]byte)) {
		if tr != nil {
			h = tracedHandler(tr, owner, h)
		}
		n.SetHandler(h)
	}

	sn := t.net.AddNode(simnet.NodeConfig{Delay: nodeDelay})
	var err error
	if t.sender, err = core.NewSender(env(sn, laySender), cfg); err != nil {
		return nil, err
	}
	handler(sn, laySender, t.sender.HandlePacket)

	if w.fieldR > 0 {
		fn := t.net.AddNode(simnet.NodeConfig{Delay: nodeDelay})
		var pop loss.Population = loss.NewBernoulliPopulation(w.fieldR, w.lossP,
			rand.New(rand.NewSource(mcrun.DeriveSeed(seed, "loss/field"))))
		if tr != nil {
			pop = &tracedPopulation{SubsetPopulation: pop.(loss.SubsetPopulation), tr: tr}
		}
		t.field, err = field.New(env(fn, layField), field.Config{
			Protocol: cfg, Population: pop, Seed: mcrun.DeriveSeed(seed, "field"),
		})
		if err != nil {
			return nil, err
		}
		t.doneAt = make([]time.Duration, 1)
		f := t.field
		handler(fn, layField, func(b []byte) {
			f.HandlePacket(b)
			if t.doneAt[0] == 0 && f.Complete() {
				t.doneAt[0] = fn.Now()
			}
		})
		return t, nil
	}

	t.delivered = make([][]byte, w.receivers)
	t.doneAt = make([]time.Duration, w.receivers)
	for r := 0; r < w.receivers; r++ {
		proc := w.process(seed, r)
		if tr != nil && proc != nil {
			proc = &tracedProcess{Process: proc, tr: tr}
		}
		n := t.net.AddNode(simnet.NodeConfig{Delay: nodeDelay, Loss: proc})
		rc, err := core.NewReceiver(env(n, layReceiver), cfg)
		if err != nil {
			return nil, err
		}
		r := r
		rc.OnComplete = func(m []byte) {
			t.delivered[r] = m
			t.doneAt[r] = n.Now()
		}
		handler(n, layReceiver, rc.HandlePacket)
		t.recvs = append(t.recvs, rc)
	}
	return t, nil
}

// drain is the timed region: Send plus the scheduler run to quiescence.
func (t *transfer) drain() (time.Duration, error) {
	start := time.Now()
	if t.tr != nil {
		t.tr.begin(layDrain)
		t.tr.begin(laySender)
	}
	err := t.sender.Send(t.msg)
	if t.tr != nil {
		t.tr.end()
		t.tr.begin(layRun)
	}
	if err == nil {
		t.sched.Run()
	}
	if t.tr != nil {
		t.tr.end()
		t.tr.end()
	}
	wall := time.Since(start)
	t.sender.Close()
	return wall, err
}

// Names of the counters the end-to-end metrics and the gates read; every
// tally key is also the name of the per-layer metric it feeds.
const (
	cDataTx     = "core.sender.data_tx"
	cParityTx   = "core.sender.parity_tx"
	cNcTx       = "core.sender.nc_tx"
	cPollTx     = "core.sender.poll_tx"
	cNakRx      = "core.sender.nak_rx"
	cSrcPkts    = "harness.source_pkts"
	cGroups     = "harness.groups"
	cCompletion = "harness.completion_virtual_s"
	cWirePkts   = "simnet.sent"
	cEmSum      = "harness.em_sum"
	cEmSumSq    = "harness.em_sumsq"
	cAttempted  = "harness.attempted"
	cFailed     = "harness.failed"
)

// tally is one transfer's counters after the drain, or a sum of them.
type tally map[string]float64

// maxKeys are the tally entries that are high-water marks, not sums.
var maxKeys = map[string]bool{
	"core.receiver.group_latency_ms_max": true,
	"field.max_active":                   true,
}

func (a tally) add(b tally) {
	for k, v := range b {
		if maxKeys[k] {
			a[k] = max(a[k], v)
		} else {
			a[k] += v
		}
	}
}

// collect reads every counter the engines and the medium export, and checks
// delivery: a receiver fails unless it delivered exactly the sent bytes, a
// field transfer unless the field reports Complete.
func (t *transfer) collect() tally {
	st := t.sender.Stats()
	ps := t.sender.PipelineStats()
	sent, delivered, dropped := t.net.Stats()
	c := tally{
		cDataTx: float64(st.DataTx), cParityTx: float64(st.ParityTx), cNcTx: float64(st.NcTx),
		cPollTx: float64(st.PollTx), cNakRx: float64(st.NakRx),
		"core.sender.parities_encoded": float64(st.Encoded),
		"core.sender.tx_errors":        float64(st.TxErrors),
		"pipeline.encode_hits":         float64(ps.EncodeHits),
		"pipeline.encode_misses":       float64(ps.EncodeMisses),
		cSrcPkts:                       float64(t.sender.SourcePackets()),
		cGroups:                        float64(t.sender.Groups()),
		cWirePkts:                      float64(sent),
		"simnet.delivered":             float64(delivered),
		"simnet.dropped":               float64(dropped),
	}
	if ctl := t.sender.Adapt(); ctl != nil {
		c["adapt.retunes"] = float64(ctl.Retunes())
		c["adapt.final_rung"] = float64(ctl.Rung())
		c["adapt.phat_final"] = ctl.PHat()
	}
	var last time.Duration
	for _, at := range t.doneAt {
		last = max(last, at)
	}
	c[cCompletion] = last.Seconds()
	// Per-group transmission multiplicity, the sample the E[M] model gate
	// takes its standard error from.
	for _, g := range t.sender.GroupTrace() {
		m := float64(g.TxCount) / float64(g.K)
		c[cEmSum] += m
		c[cEmSumSq] += m * m
	}

	if t.field != nil {
		fs := t.field.Stats()
		c["field.losses_drawn"] = float64(fs.Losses)
		c["field.max_active"] = float64(fs.MaxActive)
		c["field.nak_tx"] = float64(fs.NakTx)
		c["field.nak_supp"] = float64(fs.NakSupp)
		c[cAttempted] = 1
		if !t.field.Complete() {
			c[cFailed] = 1
		}
		return c
	}
	for r, rc := range t.recvs {
		rs := rc.Stats()
		c["core.receiver.decodes"] += float64(rs.Decodes)
		c["core.receiver.dup_rx"] += float64(rs.DupRx)
		c["core.receiver.first_rx"] += float64(rs.DataRx + rs.ParityRx)
		c["core.receiver.nak_tx"] += float64(rs.NakTx)
		c["core.receiver.nak_supp"] += float64(rs.NakSupp)
		c["core.receiver.latency_s_sum"] += rs.LatencySum.Seconds()
		c["core.receiver.latency_groups"] += float64(rs.Groups)
		c["core.receiver.group_latency_ms_max"] = max(c["core.receiver.group_latency_ms_max"],
			rs.LatencyMax.Seconds()*1e3)
		c[cAttempted]++
		if !rc.Complete() || !bytes.Equal(t.delivered[r], t.msg) {
			c[cFailed]++
		}
	}
	return c
}
