// Filetransfer: one-to-many reliable distribution compared across the
// paper's three recovery architectures, on the same simulated network.
//
// The same 256 KiB payload is multicast to R lossy receivers with
//
//	(a) N2        — ARQ only, originals retransmitted per NAK,
//	(b) layered   — N2 above a transparent FEC layer (k=7, h=1),
//	(c) NP        — integrated FEC/ARQ with parity retransmission.
//
// The program prints the sender's transmission counts: the bandwidth story
// of the paper's Figs 5/11 on a live protocol stack rather than a formula.
//
// Run with: go run ./examples/filetransfer [-receivers 30] [-p 0.05]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"rmfec"
	"rmfec/internal/core"
	"rmfec/internal/layered"
	"rmfec/internal/simnet"
)

func main() {
	var (
		nRecv = flag.Int("receivers", 30, "number of receivers")
		p     = flag.Float64("p", 0.05, "per-receiver packet loss probability")
		size  = flag.Int("size", 256<<10, "payload bytes")
		seed  = flag.Int64("seed", 7, "random seed")
		trace = flag.Bool("trace", false, "print per-node bandwidth accounting for the NP run")
	)
	flag.Parse()
	traceNP = *trace

	msg := make([]byte, *size)
	rand.New(rand.NewSource(*seed)).Read(msg)

	fmt.Printf("distributing %d KiB to %d receivers at p=%g\n\n", *size>>10, *nRecv, *p)
	fmt.Printf("%-10s %-10s %-10s %-10s %-12s %-10s\n",
		"protocol", "data tx", "parity tx", "total", "E[M]", "naks rx")

	n2 := runN2(msg, *nRecv, *p, *seed)
	lay := runLayered(msg, *nRecv, *p, *seed)
	np := runNP(msg, *nRecv, *p, *seed)

	pkts := (len(msg) + 255) / 256 // 256-byte shards in every setup
	report := func(name string, data, parity, naks int) {
		total := data + parity
		fmt.Printf("%-10s %-10d %-10d %-10d %-12.3f %-10d\n",
			name, data, parity, total, float64(total)/float64(pkts), naks)
	}
	report("N2", n2.DataTx, 0, n2.NakRx)
	report("layered", lay.data, lay.parity, lay.naks)
	report("NP", np.DataTx, np.ParityTx, np.NakRx)

	fmt.Printf("\npaper's models for R=%d, p=%g:  no-FEC E[M]=%.3f   integrated bound E[M]=%.3f\n",
		*nRecv, *p,
		rmfec.ExpectedTxNoFEC(*nRecv, *p),
		rmfec.ExpectedTxIntegrated(8, 0, *nRecv, *p))
}

func buildNet(seed int64) (*simnet.Scheduler, *simnet.Network, *rand.Rand) {
	sched := simnet.NewScheduler()
	sched.MaxEvents = 50_000_000
	rng := rand.New(rand.NewSource(seed))
	return sched, simnet.NewNetwork(sched, rng), rng
}

func verify(deliveries [][]byte, msg []byte) {
	for i, d := range deliveries {
		if !bytes.Equal(d, msg) {
			log.Fatalf("receiver %d: corrupted or incomplete delivery", i)
		}
	}
}

// traceNP prints the NP run's per-node bandwidth accounting.
var traceNP bool

func runNP(msg []byte, r int, p float64, seed int64) core.SenderStats {
	sched, net, rng := buildNet(seed)
	cfg := core.Config{Session: 1, K: 8, ShardSize: 256}
	sn := net.AddNode(simnet.NodeConfig{Delay: 5 * time.Millisecond})
	sender, err := core.NewSender(sn, cfg)
	if err != nil {
		log.Fatal(err)
	}
	sn.SetHandler(sender.HandlePacket)
	deliveries := make([][]byte, r)
	var first *simnet.Node
	for i := 0; i < r; i++ {
		node := net.AddNode(simnet.NodeConfig{
			Delay: 5 * time.Millisecond,
			Loss:  rmfec.NewBernoulli(p, rng),
		})
		if i == 0 {
			first = node
		}
		rc, err := core.NewReceiver(node, cfg)
		if err != nil {
			log.Fatal(err)
		}
		idx := i
		rc.OnComplete = func(m []byte) { deliveries[idx] = m }
		node.SetHandler(rc.HandlePacket)
	}
	if err := sender.Send(msg); err != nil {
		log.Fatal(err)
	}
	sched.Run()
	verify(deliveries, msg)
	if traceNP {
		_, delivered, dropped := net.Stats()
		sAcc, rAcc := sn.Accounting(), first.Accounting()
		fmt.Printf("\n[trace] NP sender: %d pkts / %d KiB multicast; network-wide: %d deliveries, %d drops (%.1f%% of deliveries+drops)\n",
			sAcc.TxPackets, sAcc.TxBytes>>10, delivered, dropped,
			100*float64(dropped)/float64(delivered+dropped))
		fmt.Printf("[trace] receiver 1 saw %d pkts / %d KiB, dropped %d\n\n",
			rAcc.RxPackets, rAcc.RxBytes>>10, rAcc.DropPackets)
	}
	return sender.Stats()
}

func runN2(msg []byte, r int, p float64, seed int64) core.SenderStats {
	sched, net, rng := buildNet(seed)
	cfg := core.Config{Session: 1, K: 1, ShardSize: 256}
	sn := net.AddNode(simnet.NodeConfig{Delay: 5 * time.Millisecond})
	sender, err := core.NewSenderN2(sn, cfg)
	if err != nil {
		log.Fatal(err)
	}
	sn.SetHandler(sender.HandlePacket)
	deliveries := make([][]byte, r)
	for i := 0; i < r; i++ {
		node := net.AddNode(simnet.NodeConfig{
			Delay: 5 * time.Millisecond,
			Loss:  rmfec.NewBernoulli(p, rng),
		})
		rc, err := core.NewReceiverN2(node, cfg)
		if err != nil {
			log.Fatal(err)
		}
		idx := i
		rc.OnComplete = func(m []byte) { deliveries[idx] = m }
		node.SetHandler(rc.HandlePacket)
	}
	if err := sender.Send(msg); err != nil {
		log.Fatal(err)
	}
	sched.Run()
	verify(deliveries, msg)
	return sender.Stats()
}

type layeredResult struct{ data, parity, naks int }

func runLayered(msg []byte, r int, p float64, seed int64) layeredResult {
	sched, net, rng := buildNet(seed)
	rm := core.Config{Session: 1, K: 1, ShardSize: 256}
	fec := layered.Config{Session: 900, K: 7, H: 1, ShardSize: 256 + 32}

	sn := net.AddNode(simnet.NodeConfig{Delay: 5 * time.Millisecond})
	sShim, err := layered.New(sn, fec)
	if err != nil {
		log.Fatal(err)
	}
	sn.SetHandler(sShim.HandlePacket)
	sender, err := core.NewSenderN2(sShim, rm)
	if err != nil {
		log.Fatal(err)
	}
	sShim.SetUpper(sender.HandlePacket)

	deliveries := make([][]byte, r)
	for i := 0; i < r; i++ {
		node := net.AddNode(simnet.NodeConfig{
			Delay: 5 * time.Millisecond,
			Loss:  rmfec.NewBernoulli(p, rng),
		})
		shim, err := layered.New(node, fec)
		if err != nil {
			log.Fatal(err)
		}
		node.SetHandler(shim.HandlePacket)
		rc, err := core.NewReceiverN2(shim, rm)
		if err != nil {
			log.Fatal(err)
		}
		idx := i
		rc.OnComplete = func(m []byte) { deliveries[idx] = m }
		shim.SetUpper(rc.HandlePacket)
	}
	if err := sender.Send(msg); err != nil {
		log.Fatal(err)
	}
	sched.Run()
	verify(deliveries, msg)
	return layeredResult{
		data:   sShim.Stats().WrappedTx,
		parity: sShim.Stats().ParityTx,
		naks:   sender.Stats().NakRx,
	}
}
