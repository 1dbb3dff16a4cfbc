package main

// Isolated layer timings: each layer's public functions timed on their own
// at the workloads' working point (k = 20, 1 KiB shards). They calibrate
// the host and price one operation of each layer; the traced pass counts
// how many of them a transfer performs.

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"rmfec/internal/adapt"
	"rmfec/internal/gf256"
	"rmfec/internal/loss"
	"rmfec/internal/metrics"
	"rmfec/internal/packet"
	"rmfec/internal/pipeline"
	"rmfec/internal/rect"
	"rmfec/internal/rse"
	"rmfec/internal/simnet"
	"rmfec/internal/udpcast"
)

const (
	layerK     = 20
	layerH     = 5
	layerShard = 1024
	// layerBudget is how long each isolated timing measures in a real run.
	layerBudget = 80 * time.Millisecond
)

// perOp calls fn, which performs ops operations, until budget is used up
// and returns the fast-decile time of one operation in nanoseconds. fn should
// last tens of microseconds so that reading the clock costs nothing.
func perOp(budget time.Duration, ops int, fn func()) float64 {
	fn()
	var xs []float64
	for start := time.Now(); len(xs) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t0))/float64(ops))
	}
	return fastDecile(xs)
}

// allocsPerOp returns the heap allocations one call of fn makes.
func allocsPerOp(ops int, fn func()) float64 {
	fn()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	fn()
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-m0) / float64(ops)
}

func shards(rng *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// isolatedLayers returns the isolated per-layer metrics by name. It fails
// only when a timing would not mean what its name says.
func isolatedLayers(budget time.Duration) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(1))
	m := map[string]float64{}

	src, dst := shards(rng, 1, layerShard)[0], make([]byte, layerShard)
	// One coefficient, so one product table stays cached: these two rows
	// calibrate the host, not the codec's table working set.
	const sweeps = 256
	m["gf256.muladd_mb_s"] = 1e3 / perOp(budget, sweeps*layerShard, func() {
		for i := 0; i < sweeps; i++ {
			gf256.MulAddSlice(0x57, src, dst)
		}
	})
	m["gf256.xor_mb_s"] = 1e3 / perOp(budget, sweeps*layerShard, func() {
		for i := 0; i < sweeps; i++ {
			gf256.AddSlice(src, dst)
		}
	})

	code, err := rse.New(layerK, layerH)
	if err != nil {
		return nil, err
	}
	block := shards(rng, layerK+layerH, layerShard)
	data, parity := block[:layerK], block[layerK:]
	const reps = 8
	var opErr error
	m["rse.encode_ns_per_parity"] = perOp(budget, reps*layerH, func() {
		for i := 0; i < reps; i++ {
			if err := code.EncodeBlocks(data, parity); err != nil {
				opErr = err
			}
		}
	})
	// Reconstruct with two data shards erased. Warm repeats one erasure
	// pattern, so its inversion is cached; cold walks the 190 pairs, on a
	// code of its own, in a cycle longer than the cache, so every call
	// inverts afresh.
	erase := func(c *rse.Code, i, j int) {
		block[i], block[j] = block[i][:0], block[j][:0]
		if err := c.Reconstruct(block); err != nil {
			opErr = err
		}
	}
	warm := func() {
		for i := 0; i < reps; i++ {
			erase(code, 3, 11)
		}
	}
	m["rse.reconstruct_warm_ns_per_group"] = perOp(budget, reps, warm)
	m["rse.decode_allocs_per_op"] = allocsPerOp(reps, warm)
	cold, err := rse.New(layerK, layerH)
	if err != nil {
		return nil, err
	}
	ins := rse.RegisterInstruments(metrics.NewRegistry())
	cold.Instrument(ins)
	i, j := 0, 1
	m["rse.reconstruct_cold_ns_per_group"] = perOp(budget, reps, func() {
		for n := 0; n < reps; n++ {
			erase(cold, i, j)
			if j++; j == layerK {
				if i++; i == layerK-1 {
					i = 0
				}
				j = i + 1
			}
		}
	})
	if opErr != nil {
		return nil, opErr
	}
	if got := ins.CacheHits.Value(); got > 0 {
		return nil, fmt.Errorf("rse.reconstruct_cold_ns_per_group: %d calls hit the inversion cache", got)
	}

	rung := adapt.PortfolioLadder()[0].P
	rc, err := rect.New(rung.K, int(rung.CodecArg))
	if err != nil {
		return nil, err
	}
	rdata, rparity := shards(rng, rung.K, layerShard), shards(rng, rung.H, layerShard)
	m["rect.encode_ns_per_parity"] = perOp(budget, reps*rung.H, func() {
		for i := 0; i < reps; i++ {
			if err := rc.EncodeBlocks(rdata, rparity); err != nil {
				opErr = err
			}
		}
	})

	pkt := packet.Packet{Type: packet.TypeData, Session: session, Group: 7, Seq: 3, K: layerK, Total: 410, Payload: src}
	frame := make([]byte, pkt.EncodedLen())
	const pkts = 512
	m["packet.marshal_ns_per_pkt"] = perOp(budget, pkts, func() {
		for i := 0; i < pkts; i++ {
			if _, err := pkt.MarshalTo(frame); err != nil {
				opErr = err
			}
		}
	})
	var decoded packet.Packet
	m["packet.decode_ns_per_pkt"] = perOp(budget, pkts, func() {
		for i := 0; i < pkts; i++ {
			if err := packet.DecodeInto(&decoded, frame); err != nil {
				opErr = err
			}
		}
	})
	if opErr != nil {
		return nil, opErr
	}

	const jobs = 256
	m["pipeline.handoff_ns_per_job"] = perOp(budget, jobs, func() {
		p := pipeline.New(jobs, max(1, runtime.NumCPU()-1), func(int) {})
		p.Prefetch(jobs - 1)
		for i := 0; i < jobs; i++ {
			p.Wait(i)
		}
		p.Close()
	})

	ac := adapt.DefaultConfig()
	ac.Ladder = adapt.PortfolioLadder()
	ctl := adapt.New(ac, nil)
	m["adapt.observe_decide_ns_per_group"] = perOp(budget, pkts, func() {
		for i := 0; i < pkts; i++ {
			ctl.Observe(layerK, 0, i&1)
			ctl.Decide()
		}
	})

	pop := loss.NewBernoulliPopulation(1_000_000, 0.01, rng)
	lost := 0
	// One draw over the population loses R*p = 10^4 receivers on average.
	m["loss.bernoulli_ns_per_lost"] = perOp(budget, 10_000, func() { lost += len(pop.DrawLost(0)) })
	mk := loss.NewMarkov(0.08, 3, 1000, rng)
	m["loss.markov_ns_per_draw"] = perOp(budget, pkts, func() {
		for i := 0; i < pkts; i++ {
			if mk.Lost(0.001) {
				lost++
			}
		}
	})

	sched := simnet.NewScheduler()
	nop := func() {}
	m["simnet.event_ns"] = perOp(budget, pkts, func() {
		for i := 0; i < pkts; i++ {
			sched.After(time.Duration(i&15)*time.Microsecond, nop)
		}
		sched.Run()
	})
	net := simnet.NewNetwork(sched, rng)
	tx := net.AddNode(simnet.NodeConfig{Delay: nodeDelay})
	const fanout = 4
	for i := 0; i < fanout; i++ {
		net.AddNode(simnet.NodeConfig{Delay: nodeDelay}).SetHandler(func([]byte) {})
	}
	deliver := func() {
		for i := 0; i < pkts; i++ {
			_ = tx.Multicast(frame) // a simnet node's Multicast always returns nil
		}
		sched.Run()
	}
	m["simnet.delivery_ns_per_pkt"] = perOp(budget, pkts, deliver)
	m["simnet.allocs_per_delivery"] = allocsPerOp(pkts*fanout, deliver)

	m["udpcast.batch_ns_per_pkt"], m["udpcast.syscalls_per_pkt"] = udpBatch(frame)
	return m, nil
}

// udpBatch times MulticastBatch on a real multicast socket and counts its
// system calls per datagram. This is the one measurement that leaves the
// process; where the host cannot join a multicast group both values are 0
// and the reason goes to standard error.
func udpBatch(frame []byte) (nsPerPkt, syscallsPerPkt float64) {
	c, err := udpcast.Join("239.81.7.11:47211", nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: udpcast.* not measured:", err)
		return 0, 0
	}
	defer c.Close()
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	// The series Instrument registered: the registry dedups by name and
	// labels, so these are the live counters.
	sys := func(path string) *metrics.Counter {
		return reg.Counter("udpcast_tx_syscalls_total", "", metrics.Label{Key: "path", Value: path})
	}
	batchCalls, writeCalls := sys("sendmmsg"), sys("write")
	const batch, batches = 32, 64 // the sender's default Pipeline.Batch; 2048 datagrams in all
	frames := make([][]byte, batch)
	for i := range frames {
		frames[i] = frame
	}
	var sent int
	var xs []float64
	for i := 0; i < batches; i++ {
		t0 := time.Now()
		n, err := c.MulticastBatch(frames)
		xs = append(xs, float64(time.Since(t0))/batch)
		sent += n
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: udpcast.* not measured:", err)
			return 0, 0
		}
	}
	return fastDecile(xs), float64(batchCalls.Value()+writeCalls.Value()) / float64(sent)
}
