package simnet

import (
	"time"

	"rmfec/internal/metrics"
)

// Kinds of the metrics.Event a Network records on its tracer, one per
// packet event on the medium. Every event encodes the same operands:
//
//	A = src<<32 | dst   transmitting node, receiving node (a transmission's
//	                    dst is its src: it reaches every node but that one)
//	B = len<<1 | ctl    packet length in bytes; ctl = 1 for MulticastControl
const (
	TraceTx   = "net_tx"   // one multicast transmission
	TraceRx   = "net_rx"   // one per-destination delivery
	TraceDrop = "net_drop" // one per-destination loss
)

// traceEvent packs one packet event in the encoding documented on TraceTx.
func traceEvent(kind string, now time.Duration, src, dst, n int, control bool) metrics.Event {
	b := uint64(n) << 1
	if control {
		b |= 1
	}
	return metrics.Event{At: now, Kind: kind, A: uint64(src)<<32 | uint64(dst), B: b}
}

// SetTracer records every transmission, delivery and drop on the medium
// into tr (nil disables tracing).
func (n *Network) SetTracer(tr *metrics.Tracer) { n.tracer = tr }

// NodeAccounting is what the medium has carried from and to one node: the
// medium's one record of its packets (Network.Stats sums it).
type NodeAccounting struct {
	TxPackets, TxBytes     uint64 // multicast transmissions by this node
	RxPackets, RxBytes     uint64 // deliveries to this node
	DropPackets, DropBytes uint64 // losses at this node
}

// Accounting returns the node's traffic so far.
func (node *Node) Accounting() NodeAccounting { return node.acct }
