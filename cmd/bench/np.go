package main

// The NP loopback tier measures the protocol hot path itself — Fig 17/18's
// host-processing bound Λs — by draining a whole transfer through an
// in-process loopback Env and counting wire packets per second of CPU.
// Two legs run back to back each pass, so both see the same host
// conditions:
//
//   depth0     core.Sender with the pipeline disabled (pooled frames, ring
//              queue);
//   pipelined  core.Sender with Config.Pipeline enabled (encode-ahead
//              worker pool + MulticastBatch draining) — the same wire
//              transcript, byte for byte (-transcript, check.sh tier 9).
//
// The hand-transcribed pre-pooling sender this tier used to race as a third
// "serial" leg is gone; its last measured rows (BENCH_PR10.json) are frozen
// in EXPERIMENTS.md "One cutting path (PR 14)".

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"runtime"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/metrics"
	"rmfec/internal/udpcast"
)

// npEnv is a deterministic in-process loopback Env: frames are counted
// (and optionally hashed, for -transcript) and discarded, time is virtual,
// and at most one timer is pending — the sender's pump keeps exactly one
// outstanding. drive() runs the engine to quiescence.
type npEnv struct {
	now     time.Duration
	pending func()
	rng     *rand.Rand
	pkts    int
	bytes   int64
	batches int
	hash    hash.Hash
}

func newNPEnv(seed int64) *npEnv { return &npEnv{rng: rand.New(rand.NewSource(seed))} }

func (e *npEnv) Now() time.Duration { return e.now }
func (e *npEnv) Rand() *rand.Rand   { return e.rng }

func (e *npEnv) Multicast(b []byte) error {
	e.pkts++
	e.bytes += int64(len(b))
	if e.hash != nil {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(b)))
		e.hash.Write(n[:])
		e.hash.Write(b)
	}
	return nil
}

func (e *npEnv) MulticastControl(b []byte) error { return e.Multicast(b) }

func (e *npEnv) MulticastBatch(frames [][]byte) (int, error) {
	e.batches++
	for _, b := range frames {
		e.Multicast(b) //nolint:errcheck // loopback cannot fail
	}
	return len(frames), nil
}

func (e *npEnv) After(d time.Duration, fn func()) (cancel func()) {
	e.now += d
	e.pending = fn
	return func() {}
}

func (e *npEnv) drive() {
	for e.pending != nil {
		fn := e.pending
		e.pending = nil
		fn()
	}
}

// legRun is one timed drain of one leg.
type legRun struct {
	pkts      int
	mb        float64
	secs      float64
	allocsPkt float64
}

func (l legRun) pktsS() float64 {
	if l.secs <= 0 {
		return 0
	}
	return float64(l.pkts) / l.secs
}

func (l legRun) mbS() float64 {
	if l.secs <= 0 {
		return 0
	}
	return l.mb / l.secs
}

// timeDrain measures env.drive() after the engine has already emitted its
// first packet (Send transmits once), so setup — the message copy and the
// cut in particular — stays outside the timed region.
func timeDrain(env *npEnv) legRun {
	p0, b0 := env.pkts, env.bytes
	runtime.GC() // each leg starts with a clean heap, not the last leg's debt
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	env.drive()
	secs := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	run := legRun{pkts: env.pkts - p0, mb: float64(env.bytes-b0) / 1e6, secs: secs}
	if run.pkts > 0 {
		run.allocsPkt = float64(m1.Mallocs-m0.Mallocs) / float64(run.pkts)
	}
	return run
}

func senderDrain(groups, k, h, proactive, shardSize int, pl core.PipelineConfig) (legRun, core.PipelineStats) {
	env := newNPEnv(1)
	cfg := core.Config{
		Session: 17, K: k, MaxParity: h, Proactive: proactive,
		ShardSize: shardSize, Pipeline: pl,
	}
	s, err := core.NewSender(env, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defer s.Close()
	if err := s.Send(make([]byte, groups*k*shardSize)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	run := timeDrain(env)
	return run, s.PipelineStats()
}

type npStats struct {
	Scenario           string  `json:"scenario"`
	K                  int     `json:"k"`
	H                  int     `json:"h"`
	Proactive          int     `json:"proactive"`
	Groups             int     `json:"groups"`
	Packets            int     `json:"packets_per_run"`
	Depth0PktsS        float64 `json:"depth0_pkts_s"`
	Depth0AllocsPkt    float64 `json:"depth0_allocs_per_pkt"`
	PipelinedPktsS     float64 `json:"pipelined_pkts_s"`
	PipelinedMBs       float64 `json:"pipelined_mb_s"`
	PipelinedAllocsPkt float64 `json:"pipelined_allocs_per_pkt"`
	SpeedupVsDepth0    float64 `json:"speedup_vs_depth0"`
	EncodeHits         uint64  `json:"encode_ahead_hits"`
	EncodeMisses       uint64  `json:"encode_ahead_misses"`
}

// npBench runs the loopback tier: the drain scenario (proactive = 0) is
// the Fig 17 pure data-path bound; the proactive = 5 scenario adds coding,
// inline at depth 0 and on the encode-ahead pool when pipelined — on a
// single-core host both legs are bound the same way, multi-core hosts see
// the overlap.
func npBench(runs, groups int) []npStats {
	const k, h = 20, 5
	pl := core.PipelineConfig{Depth: 8, Workers: 2, Batch: 32, EncodeShards: 2}
	var out []npStats
	for _, sc := range []struct {
		name      string
		proactive int
	}{
		{"drain", 0},
		{"proactive", 5},
	} {
		fmt.Fprintf(os.Stderr, "bench: measuring NP loopback %s (k=%d h=%d a=%d)...\n",
			sc.name, k, h, sc.proactive)
		st := npStats{Scenario: sc.name, K: k, H: h, Proactive: sc.proactive, Groups: groups}
		var d0R, pipeR, ratios, d0Allocs, pipeAllocs []float64
		var ps core.PipelineStats
		for i := 0; i < runs; i++ {
			d0, _ := senderDrain(groups, k, h, sc.proactive, shardBytes, core.PipelineConfig{})
			var pipe legRun
			pipe, ps = senderDrain(groups, k, h, sc.proactive, shardBytes, pl)
			st.Packets = pipe.pkts
			d0R = append(d0R, d0.pktsS())
			pipeR = append(pipeR, pipe.pktsS())
			d0Allocs = append(d0Allocs, d0.allocsPkt)
			pipeAllocs = append(pipeAllocs, pipe.allocsPkt)
			if d0.pktsS() > 0 {
				ratios = append(ratios, pipe.pktsS()/d0.pktsS())
			}
			st.PipelinedMBs = pipe.mbS()
		}
		st.Depth0PktsS = median(d0R)
		st.PipelinedPktsS = median(pipeR)
		st.Depth0AllocsPkt = median(d0Allocs)
		st.PipelinedAllocsPkt = median(pipeAllocs)
		st.SpeedupVsDepth0 = median(ratios)
		st.EncodeHits = ps.EncodeHits
		st.EncodeMisses = ps.EncodeMisses
		out = append(out, st)
	}
	return out
}

// scalingStats is one point of the per-core encode scaling sweep: an
// encode-bound drain (proactive = MaxParity, so every group pays h parity
// rows) run under a pinned GOMAXPROCS with Workers = procs and
// EncodeShards = min(procs, h). The paired depth-0 leg runs under the same
// GOMAXPROCS, so the speedup isolates what the sharded pipeline buys at
// that core count rather than mixing in host-wide frequency drift.
type scalingStats struct {
	Procs           int     `json:"gomaxprocs"`
	Workers         int     `json:"workers"`
	EncodeShards    int     `json:"encode_shards"`
	Depth0PktsS     float64 `json:"depth0_pkts_s"`
	PipelinedPktsS  float64 `json:"pipelined_pkts_s"`
	SpeedupVsDepth0 float64 `json:"speedup_vs_depth0"`
}

// scalingBench sweeps the encode-bound scenario across GOMAXPROCS values.
// Points beyond runtime.NumCPU() still run (the scheduler just multiplexes)
// and are recorded as measured; the snapshot's host_cpus field tells the
// reader how many points had real cores behind them. On a single-CPU host
// every point multiplexes the one core, so the whole curve flattens to a
// meaningless ~1.0x — the tier skips instead, and the returned marker is
// emitted into the snapshot as np_scaling_skipped.
func scalingBench(runs, groups int) ([]scalingStats, string) {
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "bench: NP encode scaling skipped: single-CPU host, "+
			"every GOMAXPROCS point would multiplex one core into a misleading ~1.0x curve")
		return nil, "skipped_insufficient_cpus"
	}
	const k, h = 20, 5
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	var out []scalingStats
	for _, procs := range []int{1, 2, 4, 8} {
		shards := procs
		if shards > h {
			shards = h
		}
		pl := core.PipelineConfig{Depth: 8, Workers: procs, Batch: 32, EncodeShards: shards}
		fmt.Fprintf(os.Stderr, "bench: measuring NP encode scaling at GOMAXPROCS=%d (workers=%d shards=%d)...\n",
			procs, procs, shards)
		runtime.GOMAXPROCS(procs)
		st := scalingStats{Procs: procs, Workers: procs, EncodeShards: shards}
		var d0R, pipeR, ratios []float64
		for i := 0; i < runs; i++ {
			d0, _ := senderDrain(groups, k, h, h, shardBytes, core.PipelineConfig{})
			pipe, _ := senderDrain(groups, k, h, h, shardBytes, pl)
			d0R = append(d0R, d0.pktsS())
			pipeR = append(pipeR, pipe.pktsS())
			if d0.pktsS() > 0 {
				ratios = append(ratios, pipe.pktsS()/d0.pktsS())
			}
		}
		st.Depth0PktsS = median(d0R)
		st.PipelinedPktsS = median(pipeR)
		st.SpeedupVsDepth0 = median(ratios)
		out = append(out, st)
	}
	return out, ""
}

// sysStats reports measured kernel crossings per datagram on a real
// udpcast socket, read as deltas of the udpcast_tx_syscalls_total counter
// rather than inferred from code structure: the batch leg drains frames
// through MulticastBatch in sender-sized batches, the portable leg sends
// the same frames one Multicast at a time.
type sysStats struct {
	Frames              int     `json:"frames"`
	BatchCalls          uint64  `json:"sendmmsg_calls"`
	BatchWriteCalls     uint64  `json:"batch_write_calls"`
	BatchSyscallsPkt    float64 `json:"batch_syscalls_per_pkt"`
	PortableSyscallsPkt float64 `json:"portable_syscalls_per_pkt"`
	Amortization        float64 `json:"amortization"`
}

// syscallBench measures syscalls/pkt over a real multicast socket. It
// returns nil (tier skipped) when the host has no multicast route or the
// sends fail — the same graceful degradation as the udpcast tests.
func syscallBench() *sysStats {
	c, err := udpcast.Join("239.81.7.7:47177", nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: syscall tier skipped:", err)
		return nil
	}
	defer c.Close()
	reg := metrics.NewRegistry()
	c.Instrument(reg)
	sys := func(path string) *metrics.Counter {
		// Same series Instrument registered; the registry dedups by
		// name+labels, so this returns the live counter.
		return reg.Counter("udpcast_tx_syscalls_total", "", metrics.Label{Key: "path", Value: path})
	}
	batchC, writeC := sys("sendmmsg"), sys("write")

	const frames, batch = 512, 32 // sender default Pipeline.Batch
	buf := make([][]byte, batch)
	payload := make([]byte, 64)
	for i := range buf {
		buf[i] = payload
	}
	st := &sysStats{Frames: frames}
	b0, w0 := batchC.Value(), writeC.Value()
	for sent := 0; sent < frames; sent += batch {
		if _, err := c.MulticastBatch(buf); err != nil {
			fmt.Fprintln(os.Stderr, "bench: syscall tier skipped: batch send:", err)
			return nil
		}
	}
	st.BatchCalls = batchC.Value() - b0
	st.BatchWriteCalls = writeC.Value() - w0
	st.BatchSyscallsPkt = float64(st.BatchCalls+st.BatchWriteCalls) / frames

	w1 := writeC.Value()
	for i := 0; i < frames; i++ {
		if err := c.Multicast(payload); err != nil {
			fmt.Fprintln(os.Stderr, "bench: syscall tier skipped: send:", err)
			return nil
		}
	}
	st.PortableSyscallsPkt = float64(writeC.Value()-w1) / frames
	if st.BatchSyscallsPkt > 0 {
		st.Amortization = st.PortableSyscallsPkt / st.BatchSyscallsPkt
	}
	return st
}

// transcriptHash drains one fixed transfer through a hashing loopback and
// returns "<packets>:<sha256>" over the exact wire byte sequence. check.sh
// runs it at depth 0 (twice), pipelined, and pipelined with sharded encode:
// all must agree, which is the shell-level form of
// TestPipelinedTranscriptMatchesSerial.
func transcriptHash(depth, shards int) string {
	env := newNPEnv(3)
	env.hash = sha256.New()
	cfg := core.Config{
		Session: 11, K: 20, MaxParity: 5, Proactive: 2, ShardSize: 64,
	}
	if depth > 0 {
		cfg.Pipeline = core.PipelineConfig{Depth: depth, Workers: 2, Batch: 16, EncodeShards: shards}
	}
	s, err := core.NewSender(env, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defer s.Close()
	msg := make([]byte, 120*20*64)
	rand.New(rand.NewSource(1997)).Read(msg)
	if err := s.Send(msg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	env.drive()
	return fmt.Sprintf("%d:%x", env.pkts, env.hash.Sum(nil))
}
