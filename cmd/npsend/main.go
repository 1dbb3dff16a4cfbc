// Command npsend reliably multicasts a file with the NP hybrid-ARQ
// protocol over UDP/IP multicast.
//
//	npsend -group 239.2.3.4:7654 -file big.iso -k 20 -shard 1024
//
// Start the receivers (nprecv) first; npsend keeps serving NAKs for the
// linger period after the last FIN before exiting.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/metrics"
	"rmfec/internal/udpcast"
)

func main() {
	var (
		group    = flag.String("group", "239.2.3.4:7654", "multicast group address")
		file     = flag.String("file", "", "file to transfer (required)")
		k        = flag.Int("k", 20, "transmission group size")
		shard    = flag.Int("shard", 1024, "payload bytes per packet")
		session  = flag.Uint("session", 1, "session id (receivers must match)")
		delta    = flag.Duration("delta", time.Millisecond, "packet pacing")
		linger   = flag.Duration("linger", 3*time.Second, "NAK service time after the last FIN")
		pre      = flag.Bool("preencode", false, "compute all parities before sending (Fig 18)")
		a        = flag.Int("proactive", 0, "parities sent with each group before any NAK")
		carousel = flag.Bool("carousel", false, "integrated FEC 1: stream proactive parities, no polls")
		adaptive = flag.Bool("adaptive", false, "learn the redundancy level from NAK feedback")
		adaptFEC = flag.Bool("adaptive-fec", false, "full adaptive FEC control plane: retune (k,h,a) between groups from estimated loss (overrides -k/-proactive)")
		depth    = flag.Int("depth", 0, "transmit pipeline depth in TGs (0 = serial reference path)")
		workers  = flag.Int("workers", 0, "encode-ahead worker goroutines (0 = default when -depth > 0)")
		batch    = flag.Int("batch", 0, "max packets per batched send (0 = default when -depth > 0)")
		eshards  = flag.Int("encode-shards", 0, "parity-row shards per encode job, output bytes identical at any value (0 = default when -depth > 0)")
		maddr    = flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/trace on this address (off when empty)")
	)
	flag.Parse()
	if *file == "" {
		fmt.Fprintln(os.Stderr, "npsend: -file is required")
		os.Exit(2)
	}
	msg, err := os.ReadFile(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "npsend:", err)
		os.Exit(1)
	}

	conn, err := udpcast.Join(*group, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "npsend:", err)
		os.Exit(1)
	}
	defer conn.Close()

	cfg := core.Config{
		Session:   uint32(*session),
		K:         *k,
		ShardSize: *shard,
		Delta:     *delta,
		PreEncode: *pre,
		Proactive: *a,
		Carousel:  *carousel,
		Adaptive:  *adaptive,
		Pipeline:  core.PipelineConfig{Depth: *depth, Workers: *workers, Batch: *batch, EncodeShards: *eshards},
	}
	if *adaptFEC {
		// The control plane owns (k, h, a): the ladder's initial rung
		// replaces the static flags, and every TG header states its
		// group's (k, h, codec).
		cfg.AdaptiveFEC = true
		cfg.K, cfg.Proactive = 0, 0
	}
	if *maddr != "" {
		cfg.Metrics = metrics.NewRegistry()
		cfg.Trace = metrics.NewTracer(4096)
		conn.Instrument(cfg.Metrics)
	}
	sender, err := core.NewSender(conn, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "npsend:", err)
		os.Exit(1)
	}
	// The endpoint comes up only after NewSender so the very first scrape
	// already sees the full series set (check.sh pins the schema).
	if *maddr != "" {
		ms, err := metrics.Serve(*maddr, cfg.Metrics, cfg.Trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "npsend:", err)
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("npsend: metrics on http://%s/metrics\n", ms.Addr())
	}
	conn.Serve(sender.HandlePacket)

	start := time.Now()
	conn.Do(func() {
		if err := sender.Send(msg); err != nil {
			fmt.Fprintln(os.Stderr, "npsend:", err)
			os.Exit(1)
		}
	})
	var groups, source int
	conn.Do(func() { groups, source = sender.Groups(), sender.SourcePackets() })
	if *adaptFEC {
		fmt.Printf("npsend: %d bytes, adaptive FEC, %d groups cut so far, to %s\n",
			len(msg), groups, *group)
	} else {
		fmt.Printf("npsend: %d bytes in %d groups of k=%d to %s\n", len(msg), groups, *k, *group)
	}

	// The data phase takes about sourcePackets+polls transmissions; after
	// it drains we linger to serve late NAKs. Under adaptive FEC the group
	// count grows as eras are cut, so size the wait by the message instead.
	perGroup := *k + 2
	if *adaptFEC {
		perGroup = 2
		groups = len(msg) / *shard
	}
	dataTime := time.Duration(groups*perGroup) * *delta
	time.Sleep(dataTime + *linger)

	var st core.SenderStats
	conn.Do(func() {
		st = sender.Stats()
		source = sender.SourcePackets()
		if ctl := sender.Adapt(); ctl != nil {
			p := ctl.Params()
			fmt.Printf("npsend: adaptive: p̂ = %.4f, rung %d (k=%d h=%d a=%d), %d retunes\n",
				ctl.PHat(), ctl.Rung(), p.K, p.H, p.A, ctl.Retunes())
		}
	})
	elapsed := time.Since(start)
	total := st.DataTx + st.ParityTx
	fmt.Printf("npsend: done in %v: %d data + %d parity (%d polls, %d naks served)\n",
		elapsed.Round(time.Millisecond), st.DataTx, st.ParityTx, st.PollTx, st.NakServed)
	if st.DataTx > 0 && source > 0 {
		fmt.Printf("npsend: transmissions per packet E[M] = %.3f\n",
			float64(total)/float64(source))
	}
}
