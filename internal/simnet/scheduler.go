// Package simnet provides a deterministic discrete-event simulation of an
// IP-multicast network: a scheduler with virtual time, and a broadcast
// medium of nodes whose incoming packets traverse a per-node delay and a
// per-node loss process (Bernoulli, Markov burst, or none). The protocol
// engines in internal/core are event driven, so the same engine code runs
// on this virtual network — at thousands of simulated receivers per real
// second — and on real UDP multicast via internal/udpcast.
package simnet

import (
	"container/heap"
	"fmt"
	"time"

	"rmfec/internal/metrics"
)

// event is a scheduled timer callback (fn set) or a packet delivery (fn
// nil, dst/frame/src/control set). Deliveries are never canceled, so they
// need no closure and recycle through Scheduler.free; a timer's cancel
// func holds its event, so timers are left to the garbage collector.
type event struct {
	at       time.Duration
	seq      uint64 // tie-break: FIFO among equal timestamps
	fn       func()
	canceled bool

	dst     *Node
	frame   *frame
	src     int
	control bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler is a single-threaded virtual-time event loop. It is not safe
// for concurrent use: all callbacks run on the goroutine that calls Run.
type Scheduler struct {
	now     time.Duration
	seq     uint64
	pq      eventHeap
	free    []*event // recycled delivery events
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
// and canceled, current and high-watermark queue depth, and a histogram of
// the scheduling horizon — how far ahead of virtual now each event is
// scheduled, i.e. the lag between scheduling an event and its firing. A
// nil registry disables instrumentation.
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
			"current scheduled-event queue depth (including canceled entries)"),
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
	if fn == nil {
		panic("simnet: nil event callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("simnet: scheduling in the past: %v < %v", t, s.now))
	}
	e := &event{fn: fn}
	s.push(e, t)
	return func() { e.canceled = true }
}

// push queues e at time t behind everything already scheduled for t.
//
//rmlint:hotpath
func (s *Scheduler) push(e *event, t time.Duration) {
	e.at, e.seq = t, s.seq
	s.seq++
	heap.Push(&s.pq, e)
	s.m.horizon.Observe((t - s.now).Seconds())
	s.m.depth.Set(int64(len(s.pq)))
	s.m.depthMax.SetMax(int64(len(s.pq)))
}

// take pops a recycled *T off a free list, or allocates the pool's next.
//
//rmlint:hotpath
func take[T any](free *[]*T) *T {
	if n := len(*free); n > 0 {
		v := (*free)[n-1]
		*free = (*free)[:n-1]
		return v
	}
	//rmlint:ignore hotpath-alloc pool growth: a free list reaches the in-flight count, then recycles
	return new(T)
}

// deliverAt schedules the arrival of f at dst at time t, in the same
// (at, seq) sequence as At: deliveries and timers interleave in issue order.
//
//rmlint:hotpath
func (s *Scheduler) deliverAt(t time.Duration, dst *Node, f *frame, src int, control bool) {
	e := take(&s.free)
	e.dst, e.frame, e.src, e.control = dst, f, src, control
	s.push(e, t)
}

// deliver runs a delivery event, recycles it and drops its frame reference.
//
//rmlint:hotpath
func (s *Scheduler) deliver(e *event) {
	dst, f := e.dst, e.frame
	dst.receive(f.buf, e.src, e.control)
	*e = event{}
	//rmlint:ignore hotpath-alloc pool growth: amortized up to the in-flight delivery count
	s.free = append(s.free, e)
	dst.net.release(f)
}

// After schedules fn after delay d; see At.
func (s *Scheduler) After(d time.Duration, fn func()) (cancel func()) {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Stop makes Run return after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Run processes events in timestamp order until the queue drains, Stop is
// called, or MaxEvents is exceeded (which panics, as it indicates a
// protocol livelock in a test).
func (s *Scheduler) Run() {
	s.RunUntil(1<<63 - 1)
}

// RunUntil processes events with timestamps <= deadline. Virtual time is
// left at the last processed event (or deadline if nothing ran after it).
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.stopped = false
	for len(s.pq) > 0 && !s.stopped {
		next := s.pq[0]
		if next.at > deadline {
			break
		}
		heap.Pop(&s.pq)
		s.m.depth.Set(int64(len(s.pq)))
		if next.canceled {
			s.m.canceled.Inc()
			continue
		}
		s.m.run.Inc()
		s.now = next.at
		s.processed++
		if s.MaxEvents > 0 && s.processed > s.MaxEvents {
			panic(fmt.Sprintf("simnet: exceeded %d events — livelock?", s.MaxEvents))
		}
		if next.fn != nil {
			next.fn()
		} else {
			s.deliver(next)
		}
	}
	if s.now < deadline && deadline < 1<<62 {
		s.now = deadline
	}
}

// Pending returns the number of queued (possibly canceled) events.
func (s *Scheduler) Pending() int { return len(s.pq) }
