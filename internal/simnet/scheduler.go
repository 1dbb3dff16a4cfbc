// Package simnet provides a deterministic discrete-event simulation of an
// IP-multicast network: a scheduler with virtual time, and a broadcast
// medium of nodes whose incoming packets traverse a per-node delay and a
// per-node loss process (Bernoulli, Markov burst, or none). The protocol
// engines in internal/core are event driven, so the same engine code runs
// on this virtual network — at thousands of simulated receivers per real
// second — and on real UDP multicast via internal/udpcast.
package simnet

import (
	"fmt"
	"time"

	"rmfec/internal/metrics"
)

// event is one entry of the scheduler's queue: a timer (fn set) or a
// delivery run (fn nil) — the arrival of frame, sent by node src of net, at
// the consecutive destinations net.nodes[next:to) that share one arrival
// instant, src itself skipped. A run is delivered one destination per loop
// iteration and stays at the head of the queue until its last arrival;
// nothing overtakes it there, because whatever a handler schedules, even
// for the same instant, takes a later seq — the order is the one a queue
// entry per destination (consecutive seqs, one instant) would give.
//
// Both kinds recycle through Scheduler.free. gen counts the recycles of
// this object: a timer's cancel func captures the generation it was armed
// in and does nothing once the object has moved on, so a cancel kept past
// its timer's firing can never reach the event's next user.
type event struct {
	at       time.Duration
	seq      uint64 // tie-break: FIFO among equal timestamps
	gen      uint64
	fn       func()
	canceled bool

	control  bool
	net      *Network
	frame    *frame
	src      int
	next, to int
}

// before is the queue's order: timestamp, then issue order.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Scheduler is a single-threaded virtual-time event loop. It is not safe
// for concurrent use: all callbacks run on the goroutine that calls Run.
type Scheduler struct {
	now     time.Duration
	seq     uint64
	pq      []*event // binary min-heap on (at, seq)
	free    []*event // recycled events, timers and delivery runs alike
	stopped bool
	// Budget guards against runaway simulations; 0 disables the check.
	MaxEvents uint64
	processed uint64

	m schedulerMetrics
}

// schedulerMetrics is the event loop's optional instrument set; the zero
// value (all nil) disables instrumentation.
type schedulerMetrics struct {
	run      *metrics.Counter
	canceled *metrics.Counter
	depth    *metrics.Gauge
	depthMax *metrics.Gauge
	horizon  *metrics.Histogram
}

// NewScheduler returns an empty scheduler at virtual time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Instrument registers the scheduler's live metrics on r: events processed
// (timers fired and single deliveries) and canceled, current and
// high-watermark queue depth (see Pending: a delivery run is one entry),
// and a histogram of the scheduling horizon — how far ahead of virtual now
// each queue entry is scheduled, i.e. the lag between scheduling an event
// and its firing. A nil registry disables instrumentation.
func (s *Scheduler) Instrument(r *metrics.Registry) {
	if r == nil {
		s.m = schedulerMetrics{}
		return
	}
	ev := func(result string) *metrics.Counter {
		return r.Counter("simnet_events_total",
			"scheduler events popped, by outcome",
			metrics.Label{Key: "result", Value: result})
	}
	s.m = schedulerMetrics{
		run:      ev("run"),
		canceled: ev("canceled"),
		depth: r.Gauge("simnet_queue_depth",
			"current scheduled-event queue depth (including canceled timers; a delivery run counts once)"),
		depthMax: r.Gauge("simnet_queue_depth_max",
			"high watermark of the scheduled-event queue depth"),
		horizon: r.Histogram("simnet_event_horizon_seconds",
			"virtual seconds between scheduling an event and its firing time",
			[]float64{0.0001, 0.001, 0.01, 0.1, 1, 10}),
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// At schedules fn at absolute virtual time t (>= Now) and returns a cancel
// function. Cancel is idempotent and a no-op after the event fires.
func (s *Scheduler) At(t time.Duration, fn func()) (cancel func()) {
	e := s.arm(t, fn)
	gen := e.gen
	return func() {
		if e.gen == gen {
			e.canceled = true
		}
	}
}

// arm queues a recycled timer event for fn at time t.
func (s *Scheduler) arm(t time.Duration, fn func()) *event {
	if fn == nil {
		panic("simnet: nil event callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("simnet: scheduling in the past: %v < %v", t, s.now))
	}
	e := take(&s.free)
	e.fn = fn
	s.push(e, t)
	return e
}

// push queues e at time t behind everything already scheduled for t.
func (s *Scheduler) push(e *event, t time.Duration) {
	e.at, e.seq = t, s.seq
	s.seq++
	// queue growth: amortized up to the peak number of queued events
	s.pq = append(s.pq, e)
	h := s.pq
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	if s.m.horizon != nil {
		s.m.horizon.Observe((t - s.now).Seconds())
	}
	s.m.depth.Set(int64(len(h)))
	s.m.depthMax.SetMax(int64(len(h)))
}

// pop removes the head of the queue.
func (s *Scheduler) pop() {
	h := s.pq
	n := len(h) - 1
	e := h[n]
	h[n] = nil
	s.pq = h[:n]
	s.m.depth.Set(int64(n))
	if n == 0 {
		return
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// take pops a recycled *T off a free list, or allocates the pool's next.
func take[T any](free *[]*T) *T {
	if n := len(*free); n > 0 {
		v := (*free)[n-1]
		*free = (*free)[:n-1]
		return v
	}
	// pool growth: a free list reaches the in-flight count, then recycles
	return new(T)
}

// recycle returns a popped event to the free list under a new generation,
// which turns every cancel func still holding it into a no-op.
func (s *Scheduler) recycle(e *event) {
	*e = event{gen: e.gen + 1}
	// pool growth: amortized up to the peak number of queued events
	s.free = append(s.free, e)
}

// deliverAt queues a delivery run of one destination, net.nodes[first], for
// time t, in the same (at, seq) sequence as At: runs and timers interleave
// in issue order. The caller extends the run (to) over the destinations
// that follow while their arrival instant is also t, and owns the frame
// reference the run holds.
func (s *Scheduler) deliverAt(t time.Duration, net *Network, f *frame, src int, control bool, first int) *event {
	e := take(&s.free)
	e.net, e.frame, e.src, e.control = net, f, src, control
	e.next, e.to = first, first+1
	s.push(e, t)
	return e
}

// deliver hands the frame of the run at the head of the queue to the run's
// next destination. The last arrival pops and recycles the run before the
// handler is called and drops the run's frame reference after it.
func (s *Scheduler) deliver(e *event) {
	net, f, src, control := e.net, e.frame, e.src, e.control
	dst := net.nodes[e.next]
	e.next++
	if e.next == src {
		e.next++ // the sender does not hear itself; a run never ends on it
	}
	last := e.next >= e.to
	if last {
		s.pop()
		s.recycle(e)
	}
	dst.receive(f.buf, src, control)
	if last {
		net.release(f)
	}
}

// After schedules fn after delay d; see At.
func (s *Scheduler) After(d time.Duration, fn func()) (cancel func()) {
	return s.At(s.now+max(d, 0), fn)
}

// Tick schedules fn after delay d, in the same (at, seq) order as After,
// but returns no cancel: with no closure to build, arming a tick on a
// recycled event allocates nothing.
func (s *Scheduler) Tick(d time.Duration, fn func()) {
	s.arm(s.now+max(d, 0), fn)
}

// Stop makes Run return after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Run processes events in timestamp order until the queue drains, Stop is
// called, or MaxEvents is exceeded (which panics, as it indicates a
// protocol livelock in a test).
func (s *Scheduler) Run() {
	s.RunUntil(1<<63 - 1)
}

// RunUntil processes events with timestamps <= deadline: one timer or one
// destination of a delivery run per iteration, so Stop, MaxEvents and the
// event counters all count single deliveries. Virtual time is left at the
// last processed event, or at the deadline if that is later and nothing
// due by then is still queued (a Stop can leave such events behind).
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.stopped = false
	for len(s.pq) > 0 && !s.stopped {
		e := s.pq[0]
		if e.at > deadline {
			break
		}
		at, fn := e.at, e.fn
		if fn != nil {
			s.pop()
			canceled := e.canceled
			s.recycle(e)
			if canceled {
				s.m.canceled.Inc()
				continue
			}
		}
		s.m.run.Inc()
		s.now = at
		s.processed++
		if s.MaxEvents > 0 && s.processed > s.MaxEvents {
			panic(fmt.Sprintf("simnet: exceeded %d events — livelock?", s.MaxEvents))
		}
		if fn != nil {
			fn()
		} else {
			s.deliver(e)
		}
	}
	if s.now < deadline && deadline < 1<<62 && (len(s.pq) == 0 || s.pq[0].at > deadline) {
		s.now = deadline
	}
}

// Pending returns the number of queued events: timers, canceled ones
// included until they are popped, and delivery runs. A run counts once
// however many destinations it still has to reach, and stops counting when
// its last arrival is handed over; simnet_queue_depth and
// simnet_queue_depth_max report this same count.
func (s *Scheduler) Pending() int { return len(s.pq) }
