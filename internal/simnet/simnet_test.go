package simnet

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rmfec/internal/loss"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("final time %v", s.Now())
	}
}

func TestSchedulerFIFOAmongEqualTimes(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events reordered: %v", order)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	cancel := s.After(time.Second, func() { fired = true })
	cancel()
	cancel() // idempotent
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(time.Millisecond, tick)
		}
	}
	s.After(0, tick)
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if s.Now() != 4*time.Millisecond {
		t.Fatalf("time = %v", s.Now())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []int
	s.After(time.Second, func() { fired = append(fired, 1) })
	s.After(3*time.Second, func() { fired = append(fired, 2) })
	s.RunUntil(2 * time.Second)
	if len(fired) != 1 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("time = %v", s.Now())
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	n := 0
	s.After(time.Millisecond, func() { n++; s.Stop() })
	s.After(2*time.Millisecond, func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("n = %d after Stop", n)
	}
	s.Run() // resumes
	if n != 2 {
		t.Fatalf("n = %d after resume", n)
	}
}

// TestRunUntilStoppedEarlyKeepsClock: a Stop inside a finite RunUntil leaves
// events due before the deadline in the queue, so the clock must stay at
// the last processed event — not jump to the deadline and run backwards
// (or refuse an At as "in the past") when the run resumes.
func TestRunUntilStoppedEarlyKeepsClock(t *testing.T) {
	s := NewScheduler()
	var firedAt time.Duration
	s.After(time.Millisecond, s.Stop)
	s.After(2*time.Millisecond, func() { firedAt = s.Now() })
	s.After(20*time.Second, func() {})
	s.RunUntil(10 * time.Second)
	if s.Now() != time.Millisecond || s.Pending() != 2 {
		t.Fatalf("stopped at %v with %d pending, want 1ms with 2", s.Now(), s.Pending())
	}
	s.At(5*time.Second, s.Stop) // not in the past
	s.Run()
	if firedAt != 2*time.Millisecond || s.Now() != 5*time.Second {
		t.Fatalf("resumed event saw %v, clock now %v; want 2ms, 5s", firedAt, s.Now())
	}
	// Stopped with nothing left that is due by the deadline: it is reached.
	s.RunUntil(10 * time.Second)
	if s.Now() != 10*time.Second || s.Pending() != 1 {
		t.Fatalf("clock %v with %d pending, want the 10s deadline with 1", s.Now(), s.Pending())
	}
}

// TestStaleCancelCancelsNothing: timers and delivery runs share one free
// list, so a cancel func kept past its timer's firing holds an event object
// that later belongs to someone else. The generation guard makes it a
// no-op for a later timer and for a delivery run alike.
func TestStaleCancelCancelsNothing(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s, rand.New(rand.NewSource(1)))
	src := net.AddNode(NodeConfig{})
	delivered := 0
	net.AddNode(NodeConfig{Delay: time.Millisecond}).SetHandler(func([]byte) { delivered++ })

	fired := 0
	stale := s.After(time.Millisecond, func() { fired++ })
	s.Run()
	if fired != 1 || len(s.free) != 1 {
		t.Fatalf("fired %d, %d events recycled; want 1, 1", fired, len(s.free))
	}
	e := s.free[0]

	s.After(time.Millisecond, func() { fired++ })
	if s.pq[0] != e {
		t.Fatal("the second timer did not reuse the first one's event")
	}
	stale()
	s.Run()
	if fired != 2 {
		t.Errorf("a stale cancel stopped a later timer on the same event: fired %d, want 2", fired)
	}

	src.Multicast([]byte{1}) //nolint:errcheck
	if s.pq[0] != e {
		t.Fatal("the delivery run did not reuse the timers' event")
	}
	stale()
	s.Run()
	if delivered != 1 || e.canceled {
		t.Errorf("a stale cancel touched a delivery run: delivered %d, canceled %v", delivered, e.canceled)
	}

	// A live cancel still works on the recycled object, and the object
	// comes back clean: the next timer on it fires.
	s.After(time.Millisecond, func() { fired++ })()
	s.Run()
	s.After(time.Millisecond, func() { fired++ })
	if s.pq[0] != e {
		t.Fatal("the event did not come back after a canceled timer")
	}
	s.Run()
	if fired != 3 {
		t.Errorf("fired %d after a cancel and a re-arm on the same event, want 3", fired)
	}
}

// TestTimerSteadyStateOneAlloc: a timer's event is recycled, so arming and
// firing one allocates its cancel closure and nothing else.
func TestTimerSteadyStateOneAlloc(t *testing.T) {
	s := NewScheduler()
	nop := func() {}
	arm := func() {
		s.After(time.Millisecond, nop)
		s.Run()
	}
	arm()
	if allocs := testing.AllocsPerRun(100, arm); allocs > 1 {
		t.Errorf("After + fire: %.1f allocs/op, want <= 1", allocs)
	}
}

// TestTickSteadyStateZeroAlloc: a tick builds no cancel closure, so arming
// and firing one on a recycled event allocates nothing. It takes its place
// in issue order among After's timers, and a negative delay fires now.
func TestTickSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(time.Millisecond, func() { order = append(order, 1) })
	s.Tick(time.Millisecond, func() { order = append(order, 2) })
	s.After(time.Millisecond, func() { order = append(order, 3) })
	s.Tick(-time.Second, func() { order = append(order, 0) })
	s.Run()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) || s.Now() != time.Millisecond {
		t.Fatalf("fired %v, clock at %v; want [0 1 2 3] at 1ms", order, s.Now())
	}
	nop := func() {}
	arm := func() {
		s.Tick(time.Millisecond, nop)
		s.Run()
	}
	arm()
	if allocs := testing.AllocsPerRun(100, arm); allocs != 0 {
		t.Errorf("Tick + fire: %.1f allocs/op, want 0", allocs)
	}
}

// TestDeliveryRunCountsOnceInPending: destinations with one arrival instant
// share a queue entry, which Pending counts once until its last arrival is
// handed over; a Stop in the middle of the run keeps the rest queued.
func TestDeliveryRunCountsOnceInPending(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s, rand.New(rand.NewSource(1)))
	var got, pending []int
	for i := 0; i < 4; i++ {
		n := net.AddNode(NodeConfig{Delay: time.Millisecond})
		n.SetHandler(func([]byte) {
			got, pending = append(got, n.id), append(pending, s.Pending())
			if n.id == 2 {
				s.Stop()
			}
		})
	}
	net.nodes[1].Multicast([]byte{1}) //nolint:errcheck
	if s.Pending() != 1 {
		t.Fatalf("%d entries queued for one transmission to equal delays, want 1", s.Pending())
	}
	s.Run()
	if !reflect.DeepEqual(got, []int{0, 2}) || s.Pending() != 1 {
		t.Fatalf("stopped after %v with %d pending, want [0 2] with 1", got, s.Pending())
	}
	s.Run()
	if !reflect.DeepEqual(got, []int{0, 2, 3}) || !reflect.DeepEqual(pending, []int{1, 1, 0}) {
		t.Fatalf("deliveries %v saw Pending %v, want [0 2 3] and [1 1 0]", got, pending)
	}
}

func TestSchedulerPanics(t *testing.T) {
	s := NewScheduler()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("nil fn", func() { s.At(0, nil) })
	s.After(time.Second, func() {})
	s.Run()
	mustPanic("past", func() { s.At(0, func() {}) })

	s2 := NewScheduler()
	s2.MaxEvents = 10
	var loop func()
	loop = func() { s2.After(time.Millisecond, loop) }
	s2.After(0, loop)
	mustPanic("livelock", s2.Run)
}

func TestNetworkDelivery(t *testing.T) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(s, rng)
	a := net.AddNode(NodeConfig{Delay: 5 * time.Millisecond})
	b := net.AddNode(NodeConfig{Delay: 5 * time.Millisecond})
	c := net.AddNode(NodeConfig{Delay: 10 * time.Millisecond})

	var got []string
	b.SetHandler(func(p []byte) { got = append(got, "b@"+s.Now().String()+":"+string(p)) })
	c.SetHandler(func(p []byte) { got = append(got, "c@"+s.Now().String()+":"+string(p)) })
	a.SetHandler(func(p []byte) { t.Error("sender received its own packet") })

	if err := a.Multicast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(got) != 2 {
		t.Fatalf("deliveries = %v", got)
	}
	if got[0] != "b@5ms:hello" || got[1] != "c@10ms:hello" {
		t.Fatalf("got %v", got)
	}
	sent, delivered, dropped := net.Stats()
	if sent != 1 || delivered != 2 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d", sent, delivered, dropped)
	}
}

func TestNetworkLossRate(t *testing.T) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(s, rng)
	src := net.AddNode(NodeConfig{})
	dst := net.AddNode(NodeConfig{Loss: loss.NewBernoulli(0.3, rng)})
	received := 0
	dst.SetHandler(func([]byte) { received++ })
	const pkts = 50000
	for i := 0; i < pkts; i++ {
		src.Multicast([]byte{1}) //nolint:errcheck
	}
	s.Run()
	got := float64(received) / pkts
	if math.Abs(got-0.7) > 0.01 {
		t.Fatalf("delivery rate %g, want 0.7", got)
	}
	_, delivered, dropped := net.Stats()
	if int(delivered+dropped) != pkts {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, dropped, pkts)
	}
}

func TestControlPlaneBypassesLoss(t *testing.T) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(s, rng)
	src := net.AddNode(NodeConfig{})
	dst := net.AddNode(NodeConfig{Loss: loss.NewBernoulli(1, rng)}) // loses everything
	dataCount, ctlCount := 0, 0
	dst.SetHandler(func(b []byte) {
		if b[0] == 'c' {
			ctlCount++
		} else {
			dataCount++
		}
	})
	for i := 0; i < 100; i++ {
		src.Multicast([]byte{'d'})        //nolint:errcheck
		src.MulticastControl([]byte{'c'}) //nolint:errcheck
	}
	s.Run()
	if dataCount != 0 {
		t.Fatalf("data delivered through p=1 loss: %d", dataCount)
	}
	if ctlCount != 100 {
		t.Fatalf("control deliveries = %d, want 100", ctlCount)
	}

	// With LoseControl set, control packets are lossy too.
	s2 := NewScheduler()
	rng2 := rand.New(rand.NewSource(4))
	net2 := NewNetwork(s2, rng2)
	src2 := net2.AddNode(NodeConfig{})
	dst2 := net2.AddNode(NodeConfig{Loss: loss.NewBernoulli(1, rng2), LoseControl: true})
	dst2.SetHandler(func([]byte) { t.Error("packet delivered through p=1 loss") })
	src2.MulticastControl([]byte{'c'}) //nolint:errcheck
	s2.Run()
}

func TestBurstLossSeesInterArrivalTimes(t *testing.T) {
	// With a Markov loss process on the node, packets sent close together
	// must be more correlated than packets sent far apart.
	countPairs := func(gap time.Duration, seed int64) (bothLost int) {
		s := NewScheduler()
		rng := rand.New(rand.NewSource(seed))
		net := NewNetwork(s, rng)
		src := net.AddNode(NodeConfig{})
		m := loss.NewMarkov(0.2, 4, 25, rng)
		dst := net.AddNode(NodeConfig{Loss: m})
		var mask []bool
		dst.SetHandler(func([]byte) { mask[len(mask)-1] = true })
		const pairs = 30000
		for i := 0; i < pairs; i++ {
			at := time.Duration(i) * 10 * time.Second
			s.At(at, func() { mask = append(mask, false); src.Multicast([]byte{1}) }) //nolint:errcheck
			s.At(at+gap, func() { mask = append(mask, false); src.Multicast([]byte{1}) })
		}
		s.Run()
		for i := 0; i+1 < len(mask); i += 2 {
			if !mask[i] && !mask[i+1] {
				bothLost++
			}
		}
		return bothLost
	}
	close1 := countPairs(time.Millisecond, 5)
	far := countPairs(4*time.Second, 6)
	if close1 <= far*2 {
		t.Fatalf("burst correlation missing: close=%d far=%d", close1, far)
	}
}

func TestNodeRandIndependentPerNode(t *testing.T) {
	s := NewScheduler()
	net := NewNetwork(s, rand.New(rand.NewSource(7)))
	a := net.AddNode(NodeConfig{})
	b := net.AddNode(NodeConfig{})
	if a.Rand() == b.Rand() {
		t.Fatal("nodes share a rand source")
	}
	if a.id == b.id {
		t.Fatal("duplicate node ids")
	}
}
