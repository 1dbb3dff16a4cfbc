package main

// The receiver-field tier measures the PR-8 headline: how many simulated
// receivers one NP session can front per second of wall-clock. Each point
// runs a full deterministic transfer — sender and a struct-of-arrays
// field.Field on a simnet — at R = 1e4, 1e5 and 1e6, with aggregated NAK
// feedback (one representative NAK per group per round). All three points
// move the same 24-group message, so receivers_per_sec reads as a curve
// across R. The R = 1e5 point also runs the honest before/after baseline
// once: a 4-group transfer (so it finishes in minutes) against R
// independent core.Receiver instances, one simnet node each, which is what
// fronting a population cost before the field existed. A second field pass
// at those 4 groups exists only as the other side of that comparison:
// speedup_vs_instances = instances_seconds / instances_field_seconds, like
// against like, and is the acceptance ratio.

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/field"
	"rmfec/internal/loss"
	"rmfec/internal/model"
	"rmfec/internal/simnet"
)

// Field-tier operating point: the paper's k=20 group size with enough
// parity headroom (h=24) that a 1e6-receiver group never exhausts, two
// proactive parities, 1% independent loss. ShardSize is small because the
// tier measures protocol state machinery, not payload copying.
const (
	fieldK     = 20
	fieldH     = 24
	fieldA     = 2
	fieldP     = 0.01
	fieldShard = 16
)

type fieldStats struct {
	R               int     `json:"r"`
	Groups          int     `json:"groups"`
	K               int     `json:"k"`
	H               int     `json:"h"`
	Proactive       int     `json:"proactive"`
	P               float64 `json:"p"`
	Seconds         float64 `json:"seconds"`
	ReceiversPerSec float64 `json:"receivers_per_sec"`
	EM              float64 `json:"em"`
	ModelEM         float64 `json:"model_em"`
	NaksSent        uint64  `json:"naks_sent"`
	NaksSuppressed  uint64  `json:"naks_suppressed"`
	LossesDrawn     uint64  `json:"losses_drawn"`
	// Per-instance baseline, measured on the R = 1e5 point only (one
	// pass: R simnet nodes make it minutes-scale, which is the point) at
	// InstancesGroups groups, against a field pass of the same size.
	InstancesGroups        int     `json:"instances_groups,omitempty"`
	InstancesFieldSeconds  float64 `json:"instances_field_seconds,omitempty"`
	InstancesSeconds       float64 `json:"instances_seconds,omitempty"`
	InstancesReceiversPerS float64 `json:"instances_receivers_per_sec,omitempty"`
	SpeedupVsInstances     float64 `json:"speedup_vs_instances,omitempty"`
	InstancesNaksSent      int     `json:"instances_naks_sent,omitempty"`
}

func fieldConfig() core.Config {
	return core.Config{
		Session: 8, K: fieldK, MaxParity: fieldH, Proactive: fieldA,
		ShardSize: fieldShard,
	}
}

// fieldDrain runs one full transfer against a Field fronting r receivers
// and returns the wall-clock of the drain (engine setup and the O(R)
// population allocation stay outside the timed region, as timeDrain keeps
// shard slicing outside the NP legs).
func fieldDrain(r, groups int, seed int64) (secs float64, st field.Stats, em float64) {
	sched := simnet.NewScheduler()
	sched.MaxEvents = 200_000_000
	net := simnet.NewNetwork(sched, rand.New(rand.NewSource(seed)))
	pcfg := fieldConfig()

	senderNode := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
	sender, err := core.NewSender(senderNode, pcfg)
	if err != nil {
		fatalBench(err)
	}
	senderNode.SetHandler(sender.HandlePacket)

	fieldNode := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
	pop := loss.NewBernoulliPopulation(r, fieldP, rand.New(rand.NewSource(seed+1)))
	f, err := field.New(fieldNode, field.Config{
		Protocol: pcfg, Population: pop, Seed: seed + 2,
	})
	if err != nil {
		fatalBench(err)
	}
	fieldNode.SetHandler(f.HandlePacket)

	msg := make([]byte, groups*fieldK*fieldShard)
	t0 := time.Now()
	if err := sender.Send(msg); err != nil {
		fatalBench(err)
	}
	sched.Run()
	secs = time.Since(t0).Seconds()
	if !f.Complete() {
		fatalBench(fmt.Errorf("field tier: R=%d transfer incomplete: %+v", r, f.Stats()))
	}
	em, _ = f.EM()
	return secs, f.Stats(), em
}

// instancesDrain is the per-instance baseline: the identical transfer
// against r independent core.Receiver engines, each on its own simnet
// node with its own Bernoulli loss process. Every multicast costs one
// scheduled delivery, one decode and one handler dispatch per receiver —
// the O(R) per-packet cost the field collapses to O(lost).
func instancesDrain(r, groups int, seed int64) (secs float64, naks int) {
	sched := simnet.NewScheduler()
	sched.MaxEvents = 200_000_000
	net := simnet.NewNetwork(sched, rand.New(rand.NewSource(seed)))
	pcfg := fieldConfig()

	senderNode := net.AddNode(simnet.NodeConfig{Delay: 2 * time.Millisecond})
	sender, err := core.NewSender(senderNode, pcfg)
	if err != nil {
		fatalBench(err)
	}
	nakTotal := 0
	senderNode.SetHandler(sender.HandlePacket)

	lossRng := rand.New(rand.NewSource(seed + 1))
	receivers := make([]*core.Receiver, r)
	for i := 0; i < r; i++ {
		node := net.AddNode(simnet.NodeConfig{
			Delay: 2 * time.Millisecond,
			Loss:  loss.NewBernoulli(fieldP, rand.New(rand.NewSource(lossRng.Int63()))),
		})
		rc, err := core.NewReceiver(node, pcfg)
		if err != nil {
			fatalBench(err)
		}
		rc.OnComplete = func([]byte) {}
		receivers[i] = rc
		node.SetHandler(rc.HandlePacket)
	}

	msg := make([]byte, groups*fieldK*fieldShard)
	t0 := time.Now()
	if err := sender.Send(msg); err != nil {
		fatalBench(err)
	}
	sched.Run()
	secs = time.Since(t0).Seconds()
	for i, rc := range receivers {
		if !rc.Complete() {
			fatalBench(fmt.Errorf("field tier: baseline receiver %d incomplete", i))
		}
		nakTotal += rc.Stats().NakTx
	}
	return secs, nakTotal
}

// fieldBench runs the receiver-field tier: `runs` field passes per R at
// fieldGroups groups (median wall-clock wins), plus one per-instance
// baseline pass and its same-size field passes at the baselineR point.
func fieldBench(runs int) []fieldStats {
	const (
		fieldGroups    = 24
		baselineR      = 100_000
		baselineGroups = 4 // small transfer: the baseline must finish in minutes
	)
	rs := []int{10_000, baselineR, 1_000_000}
	var out []fieldStats
	for _, r := range rs {
		fmt.Fprintf(os.Stderr, "bench: measuring receiver field R=%d (%d groups)...\n", r, fieldGroups)
		st := fieldStats{
			R: r, Groups: fieldGroups, K: fieldK, H: fieldH,
			Proactive: fieldA, P: fieldP,
			ModelEM: model.ExpectedTxIntegratedFinite(fieldK, fieldH, fieldA, r, fieldP),
		}
		var fst field.Stats
		st.Seconds, fst, st.EM = fieldMedian(r, fieldGroups, runs)
		st.NaksSent = fst.NakTx
		st.NaksSuppressed = fst.NakSupp
		st.LossesDrawn = fst.Losses
		if st.Seconds > 0 {
			st.ReceiversPerSec = float64(r) / st.Seconds
		}
		out = append(out, st)
	}
	// The baseline runs after every field point: its R engines leave
	// gigabytes of garbage, and collecting that is billed to whichever
	// drain comes next (a field drain at R = 1e6 then reads 0.29 s, not
	// 0.10 s).
	fmt.Fprintf(os.Stderr, "bench: measuring per-instance baseline R=%d (%d groups, 1 pass)...\n",
		baselineR, baselineGroups)
	st := &out[slices.Index(rs, baselineR)]
	st.InstancesGroups = baselineGroups
	st.InstancesFieldSeconds, _, _ = fieldMedian(baselineR, baselineGroups, runs)
	st.InstancesSeconds, st.InstancesNaksSent = instancesDrain(baselineR, baselineGroups, 1000)
	if st.InstancesSeconds > 0 {
		st.InstancesReceiversPerS = float64(baselineR) / st.InstancesSeconds
	}
	if st.InstancesFieldSeconds > 0 {
		st.SpeedupVsInstances = st.InstancesSeconds / st.InstancesFieldSeconds
	}
	return out
}

// fieldMedian runs `runs` field transfers (seeds 1000, 1001, ...) and
// returns the median drain time with the last pass's stats and E[M].
func fieldMedian(r, groups, runs int) (secs float64, st field.Stats, em float64) {
	var times []float64
	for i := 0; i < runs; i++ {
		secs, st, em = fieldDrain(r, groups, 1000+int64(i))
		times = append(times, secs)
	}
	return median(times), st, em
}

func fatalBench(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
