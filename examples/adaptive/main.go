// Adaptive: the redundancy-policy spectrum of the NP sender on one lossy
// network. The same transfer runs five ways:
//
//	reactive     — parities only after NAKs (the paper's protocol NP),
//	proactive    — a fixed parities ride with every group (hybrid ARQ type I),
//	carousel     — proactive parities and NO polls (the paper's "integrated
//	               FEC 1": receivers just stop listening once they can decode),
//	adaptive     — the sender learns the loss level from NAKs and front-loads
//	               roughly the right redundancy by itself (a-only EWMA),
//	adaptive-fec — the full control plane (internal/adapt): an online loss
//	               estimator and burst detector retune (k, h, a) between
//	               transmission groups, renegotiated on the wire.
//
// The table shows the classic trade: feedback rounds versus up-front
// redundancy, at nearly constant total bandwidth. The trailing section
// shows the adaptive-fec controller's (k, h) walk down the loss ladder.
// Two things to know when reading its row: the controller starts at the
// ladder's leanest rung, so a short transfer pays a visible cold start
// (the early wide groups under-provision and re-group their residue)
// that a long transfer amortizes away; and p-hat estimates the *worst*
// receiver's loss — the quantity parities must cover — which for 20
// independent receivers sits well above the per-receiver p.
//
// Run with: go run ./examples/adaptive [-p 0.08] [-receivers 20]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"rmfec"
	"rmfec/internal/adapt"
	"rmfec/internal/simnet"
)

func main() {
	var (
		nRecv = flag.Int("receivers", 20, "number of receivers")
		p     = flag.Float64("p", 0.08, "per-receiver packet loss probability")
		size  = flag.Int("size", 128<<10, "payload bytes")
		seed  = flag.Int64("seed", 11, "random seed")
	)
	flag.Parse()

	msg := make([]byte, *size)
	rand.New(rand.NewSource(*seed)).Read(msg)

	type mode struct {
		name string
		mut  func(*rmfec.Config)
	}
	modes := []mode{
		{"reactive", func(c *rmfec.Config) {}},
		{"proactive a=2", func(c *rmfec.Config) { c.Proactive = 2 }},
		{"carousel a=3", func(c *rmfec.Config) { c.Carousel = true; c.Proactive = 3 }},
		{"adaptive", func(c *rmfec.Config) { c.Adaptive = true }},
		{"adaptive-fec", adaptiveFEC},
	}

	fmt.Printf("NP redundancy policies: %d KiB to %d receivers at p=%g\n\n", *size>>10, *nRecv, *p)
	fmt.Printf("%-15s %-10s %-10s %-10s %-12s %-12s %-14s\n",
		"mode", "data tx", "parity tx", "E[M]", "polls", "nak rounds", "mean latency")

	var afSender *rmfec.Sender
	for _, m := range modes {
		sender, lat := run(t(m.mut), msg, *nRecv, *p, *seed)
		st := sender.Stats()
		total := st.DataTx + st.ParityTx
		fmt.Printf("%-15s %-10d %-10d %-10.3f %-12d %-12d %-14v\n",
			m.name, st.DataTx, st.ParityTx,
			float64(total)/float64(sender.SourcePackets()),
			st.PollTx, st.NakServed, lat.Round(100*time.Microsecond))
		if m.name == "adaptive-fec" {
			afSender = sender
		}
	}
	fmt.Printf("\nintegrated-FEC bound for this population: E[M] = %.3f\n",
		rmfec.ExpectedTxIntegrated(8, 0, *nRecv, *p))

	// The (k, h) retuning walk: where the control plane renegotiated the
	// codec parameters mid-transfer, and what it believed at the end.
	ctl := afSender.Adapt()
	pt := ctl.Params()
	fmt.Printf("\nadaptive-fec control plane (ladder of %s):\n", "internal/adapt")
	fmt.Printf("  final: p-hat = %.4f, rung %d (k=%d h=%d a=%d), %d retunes, bursty=%v\n",
		ctl.PHat(), ctl.Rung(), pt.K, pt.H, pt.A, ctl.Retunes(), ctl.Bursty())
	fmt.Printf("  (k,h) walk:")
	lastK, lastH := 0, 0
	for _, g := range afSender.GroupTrace() {
		if g.K != lastK || g.H != lastH {
			fmt.Printf(" group %d: (%d,%d)", g.Index, g.K, g.H)
			lastK, lastH = g.K, g.H
		}
	}
	fmt.Println()
}

// adaptiveFEC switches cfg onto the full control plane. The estimator
// window and NAK timing are tightened the same way the scenario tests do:
// deficits must arrive within ObserveLag group-cuts of their group, so the
// NAK slot backoff (slot*Ts, slot <= MaxNakSlots) has to fit the window.
func adaptiveFEC(c *rmfec.Config) {
	ac := adapt.DefaultConfig()
	ac.Window = 12
	ac.MinDwell = 4
	ac.MinBurstObs = 6
	ac.ProbeEvery = 4
	c.K, c.Proactive = 0, 0
	c.AdaptiveFEC = true
	c.Adapt = ac
	c.Ts = 2 * time.Millisecond
	c.MaxNakSlots = 4
	c.ObserveLag = 6
}

func t(mut func(*rmfec.Config)) rmfec.Config {
	cfg := rmfec.Config{Session: 1, K: 8, ShardSize: 256}
	mut(&cfg)
	return cfg
}

func run(cfg rmfec.Config, msg []byte, r int, p float64, seed int64) (*rmfec.Sender, time.Duration) {
	sched := rmfec.NewScheduler()
	sched.MaxEvents = 50_000_000
	rng := rand.New(rand.NewSource(seed))
	net := rmfec.NewNetwork(sched, rng)

	sn := net.AddNode(simnet.NodeConfig{Delay: 3 * time.Millisecond})
	sender, err := rmfec.NewSender(sn, cfg)
	if err != nil {
		log.Fatal(err)
	}
	sn.SetHandler(sender.HandlePacket)

	deliveries := make([][]byte, r)
	receivers := make([]*rmfec.Receiver, r)
	for i := 0; i < r; i++ {
		node := net.AddNode(simnet.NodeConfig{
			Delay: 3 * time.Millisecond,
			Loss:  rmfec.NewBernoulli(p, rng),
		})
		rc, err := rmfec.NewReceiver(node, cfg)
		if err != nil {
			log.Fatal(err)
		}
		idx := i
		rc.OnComplete = func(m []byte) { deliveries[idx] = m }
		node.SetHandler(rc.HandlePacket)
		receivers[i] = rc
	}
	if err := sender.Send(msg); err != nil {
		log.Fatal(err)
	}
	sched.Run()
	for i, d := range deliveries {
		if !bytes.Equal(d, msg) {
			log.Fatalf("receiver %d corrupted/incomplete", i)
		}
	}
	var latSum time.Duration
	for _, rc := range receivers {
		latSum += rc.Stats().MeanLatency()
	}
	return sender, latSum / time.Duration(r)
}
