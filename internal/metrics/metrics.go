// Package metrics is the repository's zero-dependency observability layer:
// a registry of atomic counters, gauges and fixed-bucket histograms (with
// Welford mean/variance, matching internal/sim's estimators), plus a
// ring-buffer event tracer (see trace.go) and text exposition in both
// expvar-style JSON and Prometheus format (see expo.go).
//
// The paper's whole evaluation is counting things — transmissions per
// packet E[M], NAKs per feedback round, end-host processing rates — and
// this package makes those counts readable out of a RUNNING sender or
// receiver instead of only out of the offline simulators. The protocol
// engines accept an optional *Registry (core.Config.Metrics); every
// instrument method is safe on a nil receiver, so uninstrumented engines
// pay a single predictable branch per event and allocate nothing.
//
// Design constraints, in order:
//
//   - Zero allocations on the hot path: Counter.Add/Inc, Gauge.Set/Add,
//     Histogram.Observe and Tracer.Record never allocate (pinned by
//     TestHotPathAllocs). Instruments are created once, up front.
//   - Safe for concurrent use: counters and gauges are lock-free atomics;
//     histograms and tracers take an uncontended mutex (the engines are
//     single-threaded, but scrapes arrive on an HTTP goroutine).
//   - Stdlib only, like everything else in this repository.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Label is one constant key/value pair attached to an instrument at
// registration time. Labels distinguish series that share a metric name
// (np_sender_tx_packets_total{kind="data"} vs {kind="parity"}); they are
// rendered once at registration, never on the hot path.
type Label struct {
	Key, Value string
}

// metric is the interface all instrument kinds present to the registry and
// the exposition writers.
type metric interface {
	// desc returns the instrument's registration record.
	desc() *desc
}

// desc is the immutable identity of one registered series.
type desc struct {
	name   string  // metric name, shared between labeled series
	help   string  // one-line help text, emitted once per name
	labels []Label // sorted by key; empty for unlabeled series
	id     string  // name plus rendered label set: the registry key
}

// seriesID renders the unique identity of a (name, labels) pair, e.g.
// `tx_total{kind="data"}`. Labels are sorted so identity is order-free.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// validName reports whether name is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]* (colons only for metric names).
func validName(name string, allowColon bool) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r == ':' && allowColon:
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// newDesc validates and builds a series identity; it panics on malformed
// names because instrument registration is programmer-controlled setup
// code, not input handling.
func newDesc(name, help string, labels []Label) *desc {
	if !validName(name, true) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	for i, l := range ls {
		if !validName(l.Key, false) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l.Key, name))
		}
		if i > 0 && ls[i-1].Key == l.Key {
			panic(fmt.Sprintf("metrics: duplicate label %q on %s", l.Key, name))
		}
	}
	return &desc{name: name, help: help, labels: ls, id: seriesID(name, ls)}
}

// Registry holds a set of named instruments and renders them as JSON or
// Prometheus text. Registration is idempotent: asking for an existing
// (name, labels) series returns the same instrument, so several engine
// instances sharing one registry aggregate into shared counters. The zero
// value is not usable; call NewRegistry. All methods are safe for
// concurrent use.
type Registry struct {
	mu    sync.Mutex
	by    map[string]metric
	order []metric // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]metric)}
}

// register returns the existing instrument for d.id or installs fresh as
// built by mk. It panics if the name is already registered as a different
// kind — that is a programming error, not a runtime condition.
func (r *Registry) register(d *desc, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.by[d.id]; ok {
		return m
	}
	m := mk()
	r.by[d.id] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the monotonically increasing counter registered under
// name and labels, creating it on first use. Nil receivers are allowed and
// return a nil *Counter, whose methods are no-ops — so instrumented code
// never branches on "is observability on".
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	d := newDesc(name, help, labels)
	m := r.register(d, func() metric { return &Counter{d: d} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("metrics: %s already registered as %T, not a counter", d.id, m))
	}
	return c
}

// Gauge returns the gauge registered under name and labels, creating it on
// first use. A nil receiver returns a nil (no-op) *Gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	d := newDesc(name, help, labels)
	m := r.register(d, func() metric { return &Gauge{d: d} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %s already registered as %T, not a gauge", d.id, m))
	}
	return g
}

// Histogram returns the histogram registered under name and labels,
// creating it with the given bucket upper bounds (ascending; an implicit
// +Inf bucket is always appended). A nil receiver returns a nil (no-op)
// *Histogram. Re-registration ignores the bounds of later calls.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s bucket bounds not ascending: %v", name, bounds))
		}
	}
	d := newDesc(name, help, labels)
	m := r.register(d, func() metric {
		return &Histogram{d: d, bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1)}
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("metrics: %s already registered as %T, not a histogram", d.id, m))
	}
	return h
}

// snapshot returns the registered instruments in registration order.
func (r *Registry) snapshot() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]metric(nil), r.order...)
}

// Counter is a monotonically increasing event count. All methods are safe
// on a nil receiver (no-op) and for concurrent use, and never allocate.
type Counter struct {
	d *desc
	v atomic.Uint64
}

func (c *Counter) desc() *desc { return c.d }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (queue depth, active flag). All methods
// are safe on a nil receiver (no-op) and for concurrent use, and never
// allocate.
type Gauge struct {
	d *desc
	v atomic.Int64
}

func (g *Gauge) desc() *desc { return g.d }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// SetMax raises the gauge to v if v is larger — a high-watermark update
// (e.g. maximum event-queue depth seen).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution with streaming Welford
// mean/variance, the same estimator internal/sim uses for its Monte-Carlo
// confidence intervals — so a live histogram's mean ± stderr is directly
// comparable to a simulated Estimate. Observe takes an uncontended mutex
// and never allocates.
type Histogram struct {
	d      *desc
	bounds []float64 // ascending upper bounds; +Inf implicit

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1
	count  uint64
	sum    float64
	mean   float64
	m2     float64 // Welford sum of squared deviations
}

func (h *Histogram) desc() *desc { return h.d }

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && x > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += x
	delta := x - h.mean
	h.mean += delta / float64(h.count)
	h.m2 += delta * (x - h.mean)
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 // bucket upper bounds; the +Inf bucket is Counts[len(Bounds)]
	Counts []uint64  // per-bucket (non-cumulative) counts
	Count  uint64
	Sum    float64
	Mean   float64
	// Variance is the unbiased sample variance (n-1 denominator); 0 with
	// fewer than two samples.
	Variance float64
}

// StdErr returns the standard error of the mean, sqrt(Variance/Count).
func (s HistogramSnapshot) StdErr() float64 {
	if s.Count == 0 {
		return 0
	}
	return math.Sqrt(s.Variance / float64(s.Count))
}

// Snapshot returns a consistent copy of the histogram; the zero snapshot
// on a nil receiver.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Mean:   h.mean,
	}
	if h.count > 1 {
		s.Variance = h.m2 / float64(h.count-1)
	}
	return s
}
