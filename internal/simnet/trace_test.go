package simnet

import (
	"math/rand"
	"testing"
	"time"

	"rmfec/internal/loss"
	"rmfec/internal/metrics"
)

func TestTraceEventsOnNetwork(t *testing.T) {
	sched := NewScheduler()
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(sched, rng)
	ring := metrics.NewTracer(16)
	net.SetTracer(ring)

	a := net.AddNode(NodeConfig{Delay: time.Millisecond})
	b := net.AddNode(NodeConfig{Delay: time.Millisecond, Loss: loss.NewBernoulli(1, rng)}) // drops all data
	c := net.AddNode(NodeConfig{Delay: time.Millisecond})
	b.SetHandler(func([]byte) {})
	c.SetHandler(func([]byte) {})

	a.Multicast(make([]byte, 100))       //nolint:errcheck
	a.MulticastControl(make([]byte, 10)) //nolint:errcheck
	sched.Run()

	// 2 TX events + per destination: data (b drop, c rx), control (b rx, c rx).
	var tot NodeAccounting
	for _, n := range []*Node{a, b, c} {
		acc := n.Accounting()
		tot.TxPackets += acc.TxPackets
		tot.TxBytes += acc.TxBytes
		tot.RxPackets += acc.RxPackets
		tot.RxBytes += acc.RxBytes
		tot.DropPackets += acc.DropPackets
		tot.DropBytes += acc.DropBytes
	}
	if tot.TxPackets != 2 || tot.RxPackets != 3 || tot.DropPackets != 1 {
		t.Fatalf("tx/rx/drop = %d/%d/%d, want 2/3/1", tot.TxPackets, tot.RxPackets, tot.DropPackets)
	}
	if tot.TxBytes != 110 || tot.RxBytes != 120 || tot.DropBytes != 100 {
		t.Errorf("byte totals %+v", tot)
	}
	if sent, delivered, dropped := net.Stats(); sent != 2 || delivered != 3 || dropped != 1 {
		t.Errorf("Stats() = %d/%d/%d, want 2/3/1", sent, delivered, dropped)
	}

	accA := a.Accounting()
	if accA.TxPackets != 2 || accA.TxBytes != 110 {
		t.Errorf("node A accounting %+v", accA)
	}
	accB := b.Accounting()
	if accB.DropPackets != 1 || accB.RxPackets != 1 {
		t.Errorf("node B accounting %+v", accB)
	}

	// The ring holds the same six events, each decodable to its node pair,
	// length and plane.
	kinds := map[string]int{}
	for _, ev := range ring.Snapshot() {
		kinds[ev.Kind]++
		src, dst := int(ev.A>>32), int(uint32(ev.A))
		n, control := int(ev.B>>1), ev.B&1 == 1
		// A sent both packets, the 100-byte one on the data plane; only a
		// transmission names its src as dst.
		if src != a.id || (n == 100) == control || (ev.Kind == TraceTx) != (dst == src) {
			t.Errorf("%s event %+v: src %d dst %d len %d control %v", ev.Kind, ev, src, dst, n, control)
		}
		if ev.Kind == TraceDrop && (dst != b.id || control) {
			t.Errorf("drop event %+v: want node B's data packet", ev)
		}
	}
	if len(kinds) != 3 || kinds[TraceTx] != 2 || kinds[TraceRx] != 3 || kinds[TraceDrop] != 1 {
		t.Errorf("ring kinds %v, want 2 %s, 3 %s, 1 %s", kinds, TraceTx, TraceRx, TraceDrop)
	}
}
