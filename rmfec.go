// Package rmfec is a Go implementation of parity-based loss recovery for
// reliable multicast transmission, reproducing Nonnenmacher, Biersack &
// Towsley (ACM SIGCOMM 1997).
//
// The package re-exports the stable surface of the internal packages:
//
//   - the systematic Reed-Solomon erasure codec (internal/rse) used to
//     generate repair parities,
//   - the NP hybrid-ARQ protocol engines and the N2 ARQ baseline
//     (internal/core), which run unchanged over the deterministic
//     discrete-event network (internal/simnet) and over real UDP multicast
//     (internal/udpcast),
//   - the layered-FEC shim (internal/layered),
//   - the closed-form performance models (internal/model), Monte-Carlo
//     engines (internal/sim) and loss processes (internal/loss) behind the
//     paper's evaluation.
//
// # Quickstart
//
//	sched := rmfec.NewScheduler()
//	net := rmfec.NewNetwork(sched, rand.New(rand.NewSource(1)))
//	cfg := rmfec.Config{Session: 1, K: 8, ShardSize: 1024}
//
//	sn := net.AddNode(rmfec.NodeConfig{Delay: 5 * time.Millisecond})
//	sender, _ := rmfec.NewSender(sn, cfg)
//	sn.SetHandler(sender.HandlePacket)
//
//	rn := net.AddNode(rmfec.NodeConfig{
//		Delay: 5 * time.Millisecond,
//		Loss:  rmfec.NewBernoulli(0.05, rng),
//	})
//	recv, _ := rmfec.NewReceiver(rn, cfg)
//	recv.OnComplete = func(msg []byte) { fmt.Println(len(msg), "bytes delivered") }
//	rn.SetHandler(recv.HandlePacket)
//
//	sender.Send(payload)
//	sched.Run()
//
// See the examples directory for complete programs, DESIGN.md for the
// architecture and EXPERIMENTS.md for the paper-figure reproduction.
package rmfec

import (
	"math/rand"

	"rmfec/internal/core"
	"rmfec/internal/loss"
	"rmfec/internal/model"
	"rmfec/internal/rse"
	"rmfec/internal/sim"
	"rmfec/internal/simnet"
	"rmfec/internal/udpcast"
)

// Protocol engine types (internal/core).
type (
	// Config parameterises an NP or N2 transfer session.
	Config = core.Config
	// Env abstracts time, randomness and the multicast medium.
	Env = core.Env
	// Sender is the NP hybrid-ARQ sender.
	Sender = core.Sender
	// Receiver is the NP hybrid-ARQ receiver.
	Receiver = core.Receiver
	// SenderStats counts sender-side protocol activity.
	SenderStats = core.SenderStats
	// ReceiverStats counts receiver-side protocol activity.
	ReceiverStats = core.ReceiverStats
)

// NewSender creates an NP sender on env.
func NewSender(env Env, cfg Config) (*Sender, error) { return core.NewSender(env, cfg) }

// NewReceiver creates an NP receiver on env.
func NewReceiver(env Env, cfg Config) (*Receiver, error) { return core.NewReceiver(env, cfg) }

// NewSenderN2 creates an N2 (ARQ-only) sender on env: the NP sender at
// k = 1 with no parities.
func NewSenderN2(env Env, cfg Config) (*Sender, error) { return core.NewSenderN2(env, cfg) }

// NewReceiverN2 creates an N2 (ARQ-only) receiver on env: the NP receiver
// at k = 1, NAKing the gaps it sees.
func NewReceiverN2(env Env, cfg Config) (*Receiver, error) { return core.NewReceiverN2(env, cfg) }

// Erasure codec (internal/rse).
type (
	// Code is a systematic (k+h, k) Reed-Solomon erasure code.
	Code = rse.Code
)

// NewCode returns a Reed-Solomon erasure code with k data and h parity
// shards per block.
func NewCode(k, h int) (*Code, error) { return rse.New(k, h) }

// Split slices a message into k equal shards with a recoverable length
// prefix; Join reverses it.
var (
	Split = rse.Split
	Join  = rse.Join
)

// Simulated network (internal/simnet).
type (
	// Scheduler is a deterministic virtual-time event loop.
	Scheduler = simnet.Scheduler
	// Network is a simulated multicast medium.
	Network = simnet.Network
	// Node is one endpoint of a Network; it implements Env.
	Node = simnet.Node
	// NodeConfig sets a node's delay and loss behaviour.
	NodeConfig = simnet.NodeConfig
	// NodeAccounting is what the medium carried from and to one node.
	NodeAccounting = simnet.NodeAccounting
)

// NewScheduler returns an empty virtual-time scheduler.
func NewScheduler() *Scheduler { return simnet.NewScheduler() }

// NewNetwork creates a simulated multicast network.
func NewNetwork(s *Scheduler, rng *rand.Rand) *Network { return simnet.NewNetwork(s, rng) }

// UDP multicast transport (internal/udpcast).
type (
	// UDPConn is a real multicast endpoint implementing Env.
	UDPConn = udpcast.Conn
)

// JoinUDP subscribes to a UDP multicast group such as "239.1.2.3:7654".
func JoinUDP(group string) (*UDPConn, error) { return udpcast.Join(group, nil) }

// Loss processes (internal/loss).
type (
	// LossProcess is a per-receiver temporal loss process.
	LossProcess = loss.Process
	// Population is a set of receivers with a joint spatial loss draw.
	Population = loss.Population
	// FBT is the shared-loss full-binary-tree topology of Section 4.1.
	FBT = loss.FBT
)

// NewBernoulli returns independent loss with probability p.
func NewBernoulli(p float64, rng *rand.Rand) LossProcess { return loss.NewBernoulli(p, rng) }

// NewMarkov returns the two-state burst-loss chain of Section 4.2.
func NewMarkov(p, meanBurst, pktRate float64, rng *rand.Rand) LossProcess {
	return loss.NewMarkov(p, meanBurst, pktRate, rng)
}

// NewFBT returns a shared-loss tree of the given height with per-receiver
// loss probability p.
func NewFBT(depth int, p float64, rng *rand.Rand) *FBT { return loss.NewFBT(depth, p, rng) }

// Analytical models (internal/model) — the paper's closed forms.
var (
	// ExpectedTxNoFEC is E[M] for pure ARQ.
	ExpectedTxNoFEC = model.ExpectedTxNoFEC
	// ExpectedTxLayered is E[M] for layered FEC, Eq. (3).
	ExpectedTxLayered = model.ExpectedTxLayered
	// ExpectedTxIntegrated is the integrated-FEC lower bound, Eq. (6).
	ExpectedTxIntegrated = model.ExpectedTxIntegrated
	// ExpectedTxIntegratedFinite is integrated FEC with a finite block.
	ExpectedTxIntegratedFinite = model.ExpectedTxIntegratedFinite
	// ResidualLoss is q(k,n,p) of Eq. (2).
	ResidualLoss = model.Q
)

// Monte-Carlo engines (internal/sim).
type (
	// Estimate is a Monte-Carlo estimate with standard error.
	Estimate = sim.Estimate
	// SimTiming is the Fig. 13 packet/round timing.
	SimTiming = sim.Timing
)

// Simulation entry points for each recovery scheme.
var (
	SimNoFEC       = sim.NoFEC
	SimLayered     = sim.Layered
	SimIntegrated1 = sim.Integrated1
	SimIntegrated2 = sim.Integrated2
)

// Extended evaluation surface: round counts, interleaving, measured
// end-host constants, layered shim and network tracing.

// ExpectedRoundsNP is E[T], the expected NP feedback-round count (Eq. 17
// bound).
var ExpectedRoundsNP = model.ExpectedRoundsNP

// SimLayeredInterleaved simulates layered FEC with classical interleaving
// over the given depth.
var SimLayeredInterleaved = sim.LayeredInterleaved

// SimIntegrated2Detailed returns both E[M] and the per-group round count.
var SimIntegrated2Detailed = sim.Integrated2Detailed
