// Command nprecv receives a file multicast by npsend.
//
//	nprecv -group 239.2.3.4:7654 -out big.iso -k 20 -shard 1024
//
// The coding parameters (-k, -shard, -session) must match the sender's: a
// static receiver admits only frames at its own (k, h, codec) working
// point. An adaptive session needs -adaptive-fec on both ends: without it
// the receiver refuses the groups cut at other working points and the
// session's FIN, and never delivers.
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
		out      = flag.String("out", "", "output file (required)")
		k        = flag.Int("k", 20, "transmission group size")
		shard    = flag.Int("shard", 1024, "payload bytes per packet")
		session  = flag.Uint("session", 1, "session id")
		timeout  = flag.Duration("timeout", 10*time.Minute, "give up after this long")
		adaptFEC = flag.Bool("adaptive-fec", false, "join an adaptive FEC session: per-group (k, h) come from each group's header (overrides -k)")
		maddr    = flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/trace on this address (off when empty)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "nprecv: -out is required")
		os.Exit(2)
	}

	conn, err := udpcast.Join(*group, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nprecv:", err)
		os.Exit(1)
	}
	defer conn.Close()

	cfg := core.Config{
		Session:   uint32(*session),
		K:         *k,
		ShardSize: *shard,
	}
	if *adaptFEC {
		// Mirror npsend: the ladder owns (k, h); each group's actual
		// parameters arrive in its TG header.
		cfg.AdaptiveFEC = true
		cfg.K = 0
	}
	if *maddr != "" {
		cfg.Metrics = metrics.NewRegistry()
		cfg.Trace = metrics.NewTracer(4096)
		conn.Instrument(cfg.Metrics)
	}
	recv, err := core.NewReceiver(conn, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nprecv:", err)
		os.Exit(1)
	}
	// The endpoint comes up only after NewReceiver so the very first
	// scrape already sees the full series set.
	if *maddr != "" {
		ms, err := metrics.Serve(*maddr, cfg.Metrics, cfg.Trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nprecv:", err)
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("nprecv: metrics on http://%s/metrics\n", ms.Addr())
	}
	done := make(chan []byte, 1)
	recv.OnComplete = func(msg []byte) { done <- msg }
	conn.Serve(recv.HandlePacket)

	if *adaptFEC {
		fmt.Printf("nprecv: listening on %s (adaptive FEC, shard=%d, session=%d)\n",
			*group, *shard, *session)
	} else {
		fmt.Printf("nprecv: listening on %s (k=%d, shard=%d, session=%d)\n",
			*group, *k, *shard, *session)
	}
	start := time.Now()
	select {
	case msg := <-done:
		if err := os.WriteFile(*out, msg, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "nprecv:", err)
			os.Exit(1)
		}
		var st core.ReceiverStats
		conn.Do(func() { st = recv.Stats() })
		fmt.Printf("nprecv: %d bytes in %v -> %s\n", len(msg),
			time.Since(start).Round(time.Millisecond), *out)
		fmt.Printf("nprecv: %d data + %d parity received, %d groups decoded, "+
			"%d naks sent, %d suppressed\n",
			st.DataRx, st.ParityRx, st.Decodes, st.NakTx, st.NakSupp)
	case <-time.After(*timeout):
		fmt.Fprintln(os.Stderr, "nprecv: timed out waiting for transfer")
		os.Exit(1)
	}
}
