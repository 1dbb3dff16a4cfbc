package simnet

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"rmfec/internal/loss"
	"rmfec/internal/metrics"
)

// TestHandlerBufferIsBorrowed pins the SetHandler contract: the buffer is
// valid for the duration of the call only. With a hook scribbling every
// frame as it is recycled, a handler that retains the slice sees the
// scribble; one that copies keeps what arrived.
func TestHandlerBufferIsBorrowed(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s, rand.New(rand.NewSource(1)))
	net.onRecycle = func(b []byte) {
		for i := range b {
			b[i] = 0xA5
		}
	}
	src := net.AddNode(NodeConfig{})
	var retained, copied []byte
	net.AddNode(NodeConfig{Delay: time.Millisecond}).SetHandler(func(b []byte) { retained = b })
	net.AddNode(NodeConfig{Delay: 2 * time.Millisecond}).SetHandler(func(b []byte) {
		// The frame is still shared: the first destination's call has
		// returned but the last reference is this one.
		if string(b) != "payload" {
			t.Errorf("frame recycled before its last delivery: %q", b)
		}
		copied = append([]byte(nil), b...)
	})
	src.Multicast([]byte("payload")) //nolint:errcheck
	s.Run()
	if string(copied) != "payload" {
		t.Errorf("copying handler kept %q", copied)
	}
	if !bytes.Equal(retained, bytes.Repeat([]byte{0xA5}, len("payload"))) {
		t.Errorf("retaining handler still reads %q: the frame was not recycled", retained)
	}
	// The recycled frame carries the next packet.
	src.Multicast([]byte("next")) //nolint:errcheck
	if len(net.frames) != 0 || string(retained[:4]) != "next" {
		t.Errorf("second packet did not reuse the frame: %d free, retained %q", len(net.frames), retained)
	}
}

// TestSendWithoutDestinations: a lone node's transmissions are counted but
// take no frame and schedule nothing.
func TestSendWithoutDestinations(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s, rand.New(rand.NewSource(2)))
	net.onRecycle = func([]byte) { t.Error("a frame was taken") }
	lone := net.AddNode(NodeConfig{})
	for i := 0; i < 3; i++ {
		if err := lone.Multicast([]byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if sent, _, _ := net.Stats(); sent != 3 || s.Pending() != 0 || len(net.frames) != 0 {
		t.Errorf("sent %d, %d events pending, %d frames", sent, s.Pending(), len(net.frames))
	}
}

// TestMulticastSteadyStateZeroAlloc pins the medium next to the engines:
// once the frame and event free lists are warm, a multicast and its R
// deliveries (lossy destinations included) allocate nothing, with or
// without a tracer recording every packet event.
func TestMulticastSteadyStateZeroAlloc(t *testing.T) {
	for _, row := range []struct {
		name   string
		tracer *metrics.Tracer
	}{{"untraced", nil}, {"traced", metrics.NewTracer(64)}} {
		t.Run(row.name, func(t *testing.T) {
			s := NewScheduler()
			rng := rand.New(rand.NewSource(3))
			net := NewNetwork(s, rng)
			net.SetTracer(row.tracer)
			src := net.AddNode(NodeConfig{})
			delivered := 0
			for i := 0; i < 4; i++ {
				cfg := NodeConfig{Delay: 2 * time.Millisecond, Jitter: time.Millisecond}
				if i == 3 {
					cfg.Loss = loss.NewBernoulli(0.5, rng)
				}
				net.AddNode(cfg).SetHandler(func([]byte) { delivered++ })
			}
			pkt := make([]byte, 1024)
			burst := func() {
				for i := 0; i < 8; i++ {
					src.Multicast(pkt) //nolint:errcheck
				}
				src.MulticastControl(pkt[:24]) //nolint:errcheck
				s.Run()
			}
			burst()
			if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
				t.Errorf("steady-state multicast burst: %.1f allocs/op, want 0", allocs)
			}
			if delivered == 0 {
				t.Error("nothing was delivered")
			}
			if row.tracer != nil && row.tracer.Total() == 0 {
				t.Error("the tracer recorded nothing")
			}
		})
	}
}

// closureSend is the medium's first ingress: one copy, and one closure
// event per destination through Scheduler.At. It is the reference that
// delivery runs must interleave identically to.
func closureSend(node *Node, b []byte, control bool) {
	b = append([]byte(nil), b...)
	net := node.net
	node.acct.TxPackets++
	now := net.sched.Now()
	for _, dst := range net.nodes {
		if dst == node {
			continue
		}
		d := dst.cfg.Delay
		if dst.cfg.Jitter > 0 {
			d += time.Duration(net.rng.Int63n(int64(dst.cfg.Jitter)))
		}
		dst, src := dst, node.id
		net.sched.At(now+d, func() { dst.receive(b, src, control) })
	}
}

// orderCase is one way of running TestDeliveryEventsKeepClosureOrder's
// script: the topology it runs on and how the scheduler is driven.
type orderCase struct {
	name      string
	nets      int             // networks sharing the one scheduler
	delays    []time.Duration // per node; nil draws 0..2 ms and jitters the odd nodes
	stops     bool            // handlers call Stop on one arrival in seven
	slice     time.Duration   // drive by RunUntil at multiples of slice instead of Run
	maxEvents uint64          // Scheduler.MaxEvents; the panic is logged, not fatal
}

// TestDeliveryEventsKeepClosureOrder runs one randomized script — timers
// that multicast, re-arm themselves and cancel each other, from senders
// first, in the middle and last in net.nodes — once on delivery runs and
// once on the all-closure reference, and requires the same pop order event
// for event: (at, seq) ties and the net.rng jitter draw order are
// untouched. The cases add what a run could get wrong: coarse delays and
// jitter that collide on many timestamps; equal delays, where a
// transmission is one run with the sender inside it; 2, 3, 2 ms, where
// equal instants sit in different runs; Stop from a handler in the middle
// of a run and a resume with exactly the remaining destinations; RunUntil
// deadlines that equal a run's timestamp; MaxEvents tripping on the same
// delivery; two networks on one scheduler.
func TestDeliveryEventsKeepClosureOrder(t *testing.T) {
	const ms = time.Millisecond
	run := func(seed int64, typed bool, c orderCase) (log []string) {
		s := NewScheduler()
		s.MaxEvents = c.maxEvents
		script := rand.New(rand.NewSource(seed + 1))
		var nets []*Network
		var nodes []*Node
		for len(nets) < c.nets {
			net := NewNetwork(s, rand.New(rand.NewSource(seed+int64(len(nets)))))
			for i := 0; i < 5; i++ {
				var cfg NodeConfig
				if c.delays != nil {
					cfg.Delay = c.delays[i]
				} else {
					cfg.Delay = time.Duration(script.Intn(3)) * ms
					if i%2 == 1 {
						cfg.Jitter = 3 // ns: most draws tie with a neighbour's arrival
					}
				}
				if i == 4 {
					cfg.Loss = loss.NewBernoulli(0.3, rand.New(rand.NewSource(seed+2)))
				}
				n, tag := net.AddNode(cfg), fmt.Sprintf("rx%d.%d", len(nets), i)
				n.SetHandler(func(b []byte) {
					log = append(log, fmt.Sprintf("%v %s %s", s.Now(), tag, b))
					if c.stops && script.Intn(7) == 0 {
						s.Stop()
					}
				})
				nodes = append(nodes, n)
			}
			nets = append(nets, net)
		}
		send := func(n *Node, b []byte, control bool) {
			if typed {
				n.send(b, control) //nolint:errcheck
			} else {
				closureSend(n, b, control)
			}
		}
		var cancels []func()
		var tick func(id, left int) func()
		tick = func(id, left int) func() {
			return func() {
				log = append(log, fmt.Sprintf("%v timer%d", s.Now(), id))
				n := nodes[script.Intn(len(nodes))]
				send(n, []byte(fmt.Sprintf("p%d.%d", id, left)), script.Intn(4) == 0)
				if len(cancels) > 0 && script.Intn(5) == 0 {
					cancels[script.Intn(len(cancels))]()
				}
				if left > 0 {
					d := time.Duration(script.Intn(3)) * ms
					cancels = append(cancels, s.After(d, tick(id, left-1)))
				}
			}
		}
		for id := 0; id < 12; id++ {
			cancels = append(cancels, s.At(time.Duration(script.Intn(4))*ms, tick(id, 20)))
		}
		defer func() {
			if p := recover(); p != nil {
				log = append(log, fmt.Sprint("panic: ", p))
			}
			for _, net := range nets {
				sent, delivered, dropped := net.Stats()
				log = append(log, fmt.Sprintf("end %v sent=%d delivered=%d dropped=%d", s.Now(), sent, delivered, dropped))
			}
			log = append(log, fmt.Sprintf("processed=%d", s.processed))
		}()
		for deadline := c.slice; s.Pending() > 0; deadline += c.slice {
			if c.slice == 0 {
				s.Run()
			} else {
				s.RunUntil(deadline)
			}
			log = append(log, fmt.Sprintf("%v returned", s.Now()))
		}
		return log
	}
	for _, c := range []orderCase{
		{name: "collisions", nets: 1},
		{name: "equal-delays", nets: 1, delays: []time.Duration{2 * ms, 2 * ms, 2 * ms, 2 * ms, 2 * ms}},
		{name: "2-3-2", nets: 1, delays: []time.Duration{2 * ms, 3 * ms, 2 * ms, 2 * ms, 3 * ms}},
		{name: "stop-and-resume", nets: 1, delays: []time.Duration{2 * ms, 2 * ms, 3 * ms, 2 * ms, 2 * ms}, stops: true},
		{name: "sliced", nets: 1, delays: []time.Duration{ms, ms, ms, 2 * ms, ms}, slice: ms},
		{name: "sliced+stops+jitter", nets: 1, stops: true, slice: ms / 2},
		{name: "max-events", nets: 1, delays: []time.Duration{ms, ms, ms, ms, ms}, maxEvents: 400},
		{name: "two-networks", nets: 2, delays: []time.Duration{2 * ms, 2 * ms, 2 * ms, 3 * ms, 2 * ms}, stops: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				want, got := run(seed, false, c), run(seed, true, c)
				if c.maxEvents == 0 && len(want) < 500 {
					t.Fatalf("seed %d: script too short to mean anything: %d events", seed, len(want))
				}
				if c.maxEvents > 0 && !strings.HasPrefix(want[len(want)-3], "panic: ") {
					t.Fatalf("seed %d: MaxEvents did not trip: %q", seed, want[len(want)-3:])
				}
				if !reflect.DeepEqual(got, want) {
					for i := range want {
						if i >= len(got) || got[i] != want[i] {
							t.Fatalf("seed %d: event %d differs: typed %q, closures %q", seed, i, got[min(i, len(got)-1)], want[i])
						}
					}
					t.Fatalf("seed %d: typed run has %d extra events", seed, len(got)-len(want))
				}
			}
		})
	}
}
