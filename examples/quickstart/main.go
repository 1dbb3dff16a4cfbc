// Quickstart: the two faces of parity-based loss recovery in ~80 lines.
//
//  1. The Reed-Solomon erasure codec on its own: encode a message into
//     k data + h parity shards, lose any h of them, reconstruct.
//  2. The NP hybrid-ARQ protocol: a reliable multicast file transfer to
//     lossy receivers on the simulated network, with the transmission
//     statistics the paper's evaluation is built on.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"rmfec"
)

func main() {
	codecDemo()
	protocolDemo()
}

func codecDemo() {
	const k, h = 8, 3
	code, err := rmfec.NewCode(k, h)
	if err != nil {
		log.Fatal(err)
	}
	msg := []byte("parity packets repair different losses at different receivers")
	// Cut the message into k equal shards, zero-padding the last.
	size := (len(msg) + k - 1) / k
	padded := make([]byte, k*size)
	copy(padded, msg)
	data := make([][]byte, k)
	for i := range data {
		data[i] = padded[i*size : (i+1)*size]
	}
	shards := make([][]byte, k+h)
	copy(shards, data)
	parity := make([][]byte, h)
	if err := code.Encode(data, parity); err != nil {
		log.Fatal(err)
	}
	copy(shards[k:], parity)

	// Lose any h shards — here two data packets and one parity.
	shards[1], shards[5], shards[k] = nil, nil, nil
	if err := code.Reconstruct(shards); err != nil {
		log.Fatal(err)
	}
	got := bytes.Join(shards[:k], nil)[:len(msg)]
	if !bytes.Equal(got, msg) {
		log.Fatal("reconstruction failed")
	}
	fmt.Printf("codec: recovered %d lost shards; message intact (%q...)\n", h, got[:24])
}

func protocolDemo() {
	const (
		nReceivers = 10
		lossProb   = 0.05
	)
	rng := rand.New(rand.NewSource(42))
	sched := rmfec.NewScheduler()
	net := rmfec.NewNetwork(sched, rng)
	cfg := rmfec.Config{Session: 1, K: 8, ShardSize: 256}

	senderNode := net.AddNode(rmfec.NodeConfig{Delay: 5 * time.Millisecond})
	sender, err := rmfec.NewSender(senderNode, cfg)
	if err != nil {
		log.Fatal(err)
	}
	senderNode.SetHandler(sender.HandlePacket)

	msg := make([]byte, 64<<10)
	rng.Read(msg)
	completed := 0
	for i := 0; i < nReceivers; i++ {
		node := net.AddNode(rmfec.NodeConfig{
			Delay: 5 * time.Millisecond,
			Loss:  rmfec.NewBernoulli(lossProb, rng),
		})
		recv, err := rmfec.NewReceiver(node, cfg)
		if err != nil {
			log.Fatal(err)
		}
		recv.OnComplete = func(got []byte) {
			if !bytes.Equal(got, msg) {
				log.Fatal("delivered message corrupted")
			}
			completed++
		}
		node.SetHandler(recv.HandlePacket)
	}

	if err := sender.Send(msg); err != nil {
		log.Fatal(err)
	}
	sched.Run()

	st := sender.Stats()
	dataPkts := sender.Groups() * cfg.K
	measured := float64(st.DataTx+st.ParityTx) / float64(dataPkts)
	bound := rmfec.ExpectedTxIntegrated(cfg.K, 0, nReceivers, lossProb)
	fmt.Printf("protocol: %d/%d receivers completed a %d KiB transfer at p=%g\n",
		completed, nReceivers, len(msg)>>10, lossProb)
	fmt.Printf("protocol: %d data + %d parity transmissions -> E[M] = %.3f "+
		"(paper's integrated-FEC bound: %.3f)\n",
		st.DataTx, st.ParityTx, measured, bound)
}
