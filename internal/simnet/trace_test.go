package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rmfec/internal/loss"
)

func TestTraceEventsOnNetwork(t *testing.T) {
	sched := NewScheduler()
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(sched, rng)
	counts := NewCountTracer()
	net.SetTracer(counts)

	a := net.AddNode(NodeConfig{Delay: time.Millisecond})
	b := net.AddNode(NodeConfig{Delay: time.Millisecond, Loss: loss.NewBernoulli(1, rng)}) // drops all data
	c := net.AddNode(NodeConfig{Delay: time.Millisecond})
	b.SetHandler(func([]byte) {})
	c.SetHandler(func([]byte) {})

	a.Multicast(make([]byte, 100))       //nolint:errcheck
	a.MulticastControl(make([]byte, 10)) //nolint:errcheck
	sched.Run()

	// 2 TX events + per destination: data (b drop, c rx), control (b rx, c rx).
	tot := counts.Totals()
	if tot.TxPackets != 2 || tot.RxPackets != 3 || tot.DropPackets != 1 {
		t.Fatalf("tx/rx/drop = %d/%d/%d, want 2/3/1", tot.TxPackets, tot.RxPackets, tot.DropPackets)
	}
	if tot.TxBytes != 110 || tot.RxBytes != 120 || tot.DropBytes != 100 {
		t.Errorf("byte totals %+v", tot)
	}

	accA := counts.Node(a.ID())
	if accA.TxPackets != 2 || accA.TxBytes != 110 {
		t.Errorf("node A accounting %+v", accA)
	}
	accB := counts.Node(b.ID())
	if accB.DropPackets != 1 || accB.RxPackets != 1 {
		t.Errorf("node B accounting %+v", accB)
	}
	if counts.Node(99).TxPackets != 0 {
		t.Error("unknown node should be zero value")
	}
}

func TestTraceDumpFormat(t *testing.T) {
	var sb strings.Builder
	for _, ev := range []TraceEvent{
		{Time: time.Second, Src: 0, Dst: -1, Len: 42},
		{Time: time.Second, Src: 0, Dst: 1, Len: 42},
		{Time: time.Second, Src: 0, Dst: 2, Len: 42, Dropped: true},
		{Time: time.Second, Src: 0, Dst: -1, Len: 8, Control: true},
	} {
		fmt.Fprintln(&sb, ev)
	}
	out := sb.String()
	for _, want := range []string{"TX", "RX", "DROP", "ctl", "node0", "from node0"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}
