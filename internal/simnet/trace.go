package simnet

import (
	"fmt"
	"time"
)

// TraceEvent describes one packet event on the simulated medium: a
// multicast transmission (Dst < 0) or a per-destination delivery/drop.
type TraceEvent struct {
	Time    time.Duration
	Src     int  // transmitting node
	Dst     int  // receiving node, or -1 for the transmission itself
	Len     int  // packet length in bytes
	Control bool // sent via MulticastControl
	Dropped bool // destination's loss process dropped it
}

// String renders the event in a compact, log-friendly form.
func (ev TraceEvent) String() string {
	switch {
	case ev.Dst < 0:
		kind := "data"
		if ev.Control {
			kind = "ctl"
		}
		return fmt.Sprintf("%12v  node%-3d TX   %4dB %s", ev.Time, ev.Src, ev.Len, kind)
	case ev.Dropped:
		return fmt.Sprintf("%12v  node%-3d DROP %4dB from node%d", ev.Time, ev.Dst, ev.Len, ev.Src)
	default:
		return fmt.Sprintf("%12v  node%-3d RX   %4dB from node%d", ev.Time, ev.Dst, ev.Len, ev.Src)
	}
}

// Tracer observes packet events. Implementations must be fast; they run
// inline on the scheduler goroutine.
type Tracer interface {
	Record(ev TraceEvent)
}

// SetTracer installs a tracer on the network (nil disables tracing).
func (n *Network) SetTracer(tr Tracer) { n.tracer = tr }

// NodeAccounting aggregates per-node traffic.
type NodeAccounting struct {
	TxPackets, TxBytes     uint64 // multicast transmissions by this node
	RxPackets, RxBytes     uint64 // deliveries to this node
	DropPackets, DropBytes uint64 // losses at this node
}

// CountTracer aggregates a NodeAccounting per node id; it grows as needed
// and is suitable for whole-run bandwidth audits.
type CountTracer struct {
	nodes []NodeAccounting
}

// NewCountTracer returns an empty accounting tracer.
func NewCountTracer() *CountTracer { return &CountTracer{} }

// Record implements Tracer.
func (c *CountTracer) Record(ev TraceEvent) {
	id := ev.Dst
	if ev.Dst < 0 {
		id = ev.Src
	}
	for id >= len(c.nodes) {
		c.nodes = append(c.nodes, NodeAccounting{})
	}
	acc := &c.nodes[id]
	switch {
	case ev.Dst < 0:
		acc.TxPackets++
		acc.TxBytes += uint64(ev.Len)
	case ev.Dropped:
		acc.DropPackets++
		acc.DropBytes += uint64(ev.Len)
	default:
		acc.RxPackets++
		acc.RxBytes += uint64(ev.Len)
	}
}

// Node returns the accounting for node id (zero value if unseen).
func (c *CountTracer) Node(id int) NodeAccounting {
	if id < 0 || id >= len(c.nodes) {
		return NodeAccounting{}
	}
	return c.nodes[id]
}

// Totals sums the accounting over all nodes.
func (c *CountTracer) Totals() NodeAccounting {
	var t NodeAccounting
	for _, n := range c.nodes {
		t.TxPackets += n.TxPackets
		t.TxBytes += n.TxBytes
		t.RxPackets += n.RxPackets
		t.RxBytes += n.RxBytes
		t.DropPackets += n.DropPackets
		t.DropBytes += n.DropBytes
	}
	return t
}
