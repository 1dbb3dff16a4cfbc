package rmfec

import (
	"rmfec/internal/core"
	"rmfec/internal/hostperf"
	"rmfec/internal/layered"
	"rmfec/internal/loss"
	"rmfec/internal/model"
	"rmfec/internal/rse16"
)

// End-host performance models (internal/model, internal/hostperf).
type (
	// HostTiming holds the Section-5 per-operation processing times.
	HostTiming = model.Timing
	// HostRates are per-packet processing rates in packets/ms.
	HostRates = model.Rates
)

// PaperTiming is the paper's DECstation 5000/200 measurement constants.
var PaperTiming = model.PaperTiming

// MeasureHostTiming measures this machine's timing constants (coder and
// UDP stack), for Figs 17/18 on modern hardware.
func MeasureHostTiming() (HostTiming, error) { return hostperf.Timing() }

// N2Rates and NPRates evaluate the end-host processing models, Eqs. 10-16.
var (
	N2Rates = model.N2Rates
	NPRates = model.NPRates
)

// Layered-FEC shim (internal/layered).
type (
	// LayeredShim is a transparent FEC layer below an ARQ protocol.
	LayeredShim = layered.Shim
	// LayeredConfig parameterises the shim.
	LayeredConfig = layered.Config
)

// NewLayeredShim stacks a FEC layer on a lower Env.
func NewLayeredShim(lower Env, cfg LayeredConfig) (*LayeredShim, error) {
	return layered.New(lower, cfg)
}

// Large-block erasure coding over GF(2^16) (internal/rse16): FEC blocks
// beyond the 256-packet limit of GF(2^8), for bulk distribution with the
// very large transmission groups Section 4.2 recommends against burst
// loss.
type LargeCode = rse16.Code

// NewLargeCode returns a GF(2^16) erasure code with k data and h parity
// shards per block (k up to 4096, k+h up to 65536; even shard sizes).
func NewLargeCode(k, h int) (*LargeCode, error) { return rse16.New(k, h) }

// Generalised shared-loss topologies (internal/loss): arbitrary multicast
// trees with per-node loss, of which the paper's full binary tree is the
// degree-2 special case.
type (
	// Tree is a shared-loss multicast tree Population.
	Tree = loss.Tree
	// TreeNode describes one node when building a Tree.
	TreeNode = loss.TreeNode
)

// NewTree and NewUniformTree construct shared-loss tree populations.
var (
	NewTree        = loss.NewTree
	NewUniformTree = loss.NewUniformTree
)

// Dispatcher demultiplexes one multicast group among several engines by
// session id, enabling concurrent transfers on a single socket or node.
type Dispatcher = core.Dispatcher

// NewDispatcher returns an empty session demultiplexer.
var NewDispatcher = core.NewDispatcher
