package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"rmfec/internal/loss"
	"rmfec/internal/metrics"
)

// Network is a multicast medium: a packet sent by any node is delivered to
// every other node after that node's propagation delay, unless the
// destination's loss process drops it. Loss is applied per destination, so
// one multicast transmission can reach some receivers and miss others —
// exactly the setting of the paper.
type Network struct {
	sched *Scheduler
	nodes []*Node
	rng   *rand.Rand

	frames    []*frame     // recycled ingress copies
	onRecycle func([]byte) // test hook: sees each frame as it is recycled

	tracer *metrics.Tracer // optional packet-event ring
	m      networkMetrics
}

// networkMetrics mirrors the Stats fields onto a metrics.Registry; the zero
// value (all nil) disables instrumentation.
type networkMetrics struct {
	sent      *metrics.Counter
	delivered *metrics.Counter
	dropped   *metrics.Counter
}

// Instrument registers the network's live metrics on r — multicast
// transmissions and per-destination delivery outcomes — and the underlying
// scheduler's event-loop metrics. A nil registry disables instrumentation.
func (n *Network) Instrument(r *metrics.Registry) {
	if r == nil {
		n.m = networkMetrics{}
		n.sched.Instrument(nil)
		return
	}
	rx := func(result string) *metrics.Counter {
		return r.Counter("simnet_net_rx_total",
			"per-destination arrival outcomes on the simulated medium",
			metrics.Label{Key: "result", Value: result})
	}
	n.m = networkMetrics{
		sent: r.Counter("simnet_net_tx_total",
			"multicast transmissions on the simulated medium"),
		delivered: rx("delivered"),
		dropped:   rx("dropped"),
	}
	n.sched.Instrument(r)
}

// NewNetwork creates a network on the given scheduler with a seeded source
// of randomness for delay jitter.
func NewNetwork(sched *Scheduler, rng *rand.Rand) *Network {
	if sched == nil || rng == nil {
		panic("simnet: nil scheduler or rng")
	}
	return &Network{sched: sched, rng: rng}
}

// Scheduler returns the network's event loop.
func (n *Network) Scheduler() *Scheduler { return n.sched }

// Stats returns (multicast transmissions, per-destination deliveries,
// per-destination drops) so far, summed over the nodes' accounting.
func (n *Network) Stats() (sent, delivered, dropped uint64) {
	for _, node := range n.nodes {
		sent += node.acct.TxPackets
		delivered += node.acct.RxPackets
		dropped += node.acct.DropPackets
	}
	return sent, delivered, dropped
}

// frame is the medium's one copy of a transmitted packet, shared by every
// destination's pending arrival and recycled after the last of them.
type frame struct {
	buf  []byte
	refs int // delivery runs not yet finished
}

// release drops one run's reference; the last one recycles the frame.
func (n *Network) release(f *frame) {
	if f.refs--; f.refs > 0 {
		return
	}
	if n.onRecycle != nil {
		n.onRecycle(f.buf)
	}
	// pool growth: amortized up to the in-flight packet count
	n.frames = append(n.frames, f)
}

// NodeConfig configures one attached node.
type NodeConfig struct {
	// Loss drops packets arriving at this node; nil means lossless.
	Loss loss.Process
	// Delay is the fixed propagation delay for packets arriving here.
	Delay time.Duration
	// Jitter adds a uniform random [0,Jitter) component to each arrival.
	Jitter time.Duration
	// LoseControl, when false (the default), exempts control traffic
	// (marked by the sender via MulticastControl) from the loss process —
	// matching analyses that assume NAKs are never lost. Set true to
	// subject everything to loss.
	LoseControl bool
}

// Node is one endpoint on the medium. It implements the core.Env contract
// structurally: Now, Multicast, MulticastControl, After and Rand.
type Node struct {
	id      int
	net     *Network
	cfg     NodeConfig
	handler func(b []byte)
	rng     *rand.Rand
	lastRx  time.Duration // last arrival, for temporal loss processes
	hasRx   bool
	acct    NodeAccounting
}

// AddNode attaches a node with the given reception characteristics.
func (n *Network) AddNode(cfg NodeConfig) *Node {
	if cfg.Delay < 0 || cfg.Jitter < 0 {
		panic(fmt.Sprintf("simnet: negative delay %v/%v", cfg.Delay, cfg.Jitter))
	}
	node := &Node{
		id:  len(n.nodes),
		net: n,
		cfg: cfg,
		rng: rand.New(rand.NewSource(n.rng.Int63())),
	}
	n.nodes = append(n.nodes, node)
	return node
}

// ID returns the node's index within the network.
func (node *Node) ID() int { return node.id }

// SetHandler installs the packet-arrival callback. Handlers run on the
// scheduler goroutine. The buffer is BORROWED for the duration of the call:
// it is shared with the other destinations' arrivals (do not write to it)
// and recycled for a later packet after the last of them (copy what you
// keep) — the same contract udpcast.Serve's read buffer has.
func (node *Node) SetHandler(fn func(b []byte)) { node.handler = fn }

// Now returns virtual time.
func (node *Node) Now() time.Duration { return node.net.sched.Now() }

// After schedules a local timer.
func (node *Node) After(d time.Duration, fn func()) (cancel func()) {
	return node.net.sched.After(d, fn)
}

// Rand returns the node's private randomness (for NAK slot selection).
func (node *Node) Rand() *rand.Rand { return node.rng }

// Multicast sends a data-plane packet to every other node.
func (node *Node) Multicast(b []byte) error { return node.send(b, false) }

// MulticastControl sends a control packet (POLL/NAK/FIN); destinations with
// LoseControl unset receive it loss-free.
func (node *Node) MulticastControl(b []byte) error { return node.send(b, true) }

func (node *Node) send(b []byte, control bool) error {
	net := node.net
	node.acct.TxPackets++
	node.acct.TxBytes += uint64(len(b))
	net.m.sent.Inc()
	now := net.sched.Now()
	if net.tracer != nil {
		net.tracer.Record(traceEvent(TraceTx, now, node.id, node.id, len(b), control))
	}
	if len(net.nodes) == 1 {
		return nil // nobody to deliver to: no frame taken
	}
	// The core.Env contract lets engines recycle wire frames as soon as the
	// send call returns, while this medium delivers asynchronously: take the
	// network's one copy at ingress; every destination's arrival borrows it.
	f := take(&net.frames)
	// pool growth: appends only until the frame has carried the largest packet size
	f.buf = append(f.buf[:0], b...)
	// One queue entry per maximal run of consecutive destinations with the
	// same arrival instant; each run holds one reference to the frame.
	f.refs = 0
	var run *event
	for i, dst := range net.nodes {
		if dst == node {
			continue
		}
		d := dst.cfg.Delay
		if dst.cfg.Jitter > 0 {
			d += time.Duration(net.rng.Int63n(int64(dst.cfg.Jitter)))
		}
		if run != nil && run.at == now+d {
			run.to = i + 1
			continue
		}
		run = net.sched.deliverAt(now+d, net, f, node.id, control, i)
		f.refs++
	}
	return nil
}

func (node *Node) receive(b []byte, src int, control bool) {
	lossy := node.cfg.Loss != nil && (!control || node.cfg.LoseControl)
	if lossy {
		now := node.net.sched.Now()
		dt := 0.0
		if node.hasRx {
			dt = (now - node.lastRx).Seconds()
		}
		node.lastRx = now
		node.hasRx = true
		if node.cfg.Loss.Lost(dt) {
			node.acct.DropPackets++
			node.acct.DropBytes += uint64(len(b))
			node.net.m.dropped.Inc()
			if node.net.tracer != nil {
				node.net.tracer.Record(traceEvent(TraceDrop, now, src, node.id, len(b), control))
			}
			return
		}
	}
	node.acct.RxPackets++
	node.acct.RxBytes += uint64(len(b))
	node.net.m.delivered.Inc()
	if node.net.tracer != nil {
		node.net.tracer.Record(traceEvent(TraceRx, node.net.sched.Now(), src, node.id, len(b), control))
	}
	if node.handler != nil {
		node.handler(b)
	}
}
