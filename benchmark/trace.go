package main

// Spans and shims of the traced pass. Nothing inside the engines is
// instrumented: every span is taken by a shim this file puts at a layer
// boundary — around core.Env, around the HandlePacket handlers a simnet
// node dispatches to, around loss.Process and around loss.Population.
// The engines are single-threaded (pipeline workers never touch the Env),
// so one span stack per transfer is enough.

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"rmfec/internal/core"
	"rmfec/internal/loss"
)

// layer names the module a span's time is charged to.
type layer uint8

const (
	layDrain    layer = iota // harness: Send + Run of one transfer
	laySender                // core.Sender entry points
	layReceiver              // core.Receiver entry points
	layField                 // field.Field entry points
	layIngress               // simnet Multicast*, as seen by the caller
	layTimer                 // simnet After, as seen by the caller
	layRun                   // simnet scheduler loop (Run)
	layLoss                  // loss.Process / loss.Population draws
	numLayers
)

var layerNames = [numLayers]string{
	"harness.drain", "core.sender", "core.receiver", "field",
	"simnet.ingress", "simnet.timer", "simnet.run", "loss",
}

// span is one call across a layer boundary. Times are nanoseconds since
// the tracer's origin; parent indexes the tracer's span slice (-1: root).
type span struct {
	lay        layer
	parent     int32
	start, end int64
}

type frame struct {
	lay   layer
	idx   int32 // index into spans, -1 when spans are not kept
	start int64
	child int64 // time covered by child spans
}

// tracer accumulates self time per layer over every traced transfer and
// keeps the full span list of the transfers for which keep is set.
type tracer struct {
	origin time.Time
	keep   bool
	spans  []span
	stack  []frame
	self   [numLayers]int64 // span time minus child spans, ns
	calls  [numLayers]int64
	fired  int64 // timer callbacks run
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), stack: make([]frame, 0, 16)}
}

func (t *tracer) begin(l layer) {
	f := frame{lay: l, idx: -1, start: int64(time.Since(t.origin))}
	if t.keep {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		f.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{lay: l, parent: parent, start: f.start})
	}
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	now := int64(time.Since(t.origin))
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - f.start
	t.self[f.lay] += dur - f.child
	t.calls[f.lay]++
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if f.idx >= 0 {
		t.spans[f.idx].end = now
	}
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string, transfer int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"transfer":%d}`+"\n",
			i, layerNames[s.lay], s.start, s.end, s.parent, transfer)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEnv is the shim around an engine's core.Env. Multicast* and After
// are spans charged to simnet; a timer callback re-enters the engine, so it
// runs inside a span of the owning engine's layer. Now and Rand pass
// through unspanned: two clock reads would cost more than either call.
type tracedEnv struct {
	core.Env
	tr    *tracer
	owner layer
}

func (e *tracedEnv) Multicast(b []byte) error {
	e.tr.begin(layIngress)
	err := e.Env.Multicast(b)
	e.tr.end()
	return err
}

func (e *tracedEnv) MulticastControl(b []byte) error {
	e.tr.begin(layIngress)
	err := e.Env.MulticastControl(b)
	e.tr.end()
	return err
}

func (e *tracedEnv) After(d time.Duration, fn func()) (cancel func()) {
	e.tr.begin(layTimer)
	cancel = e.Env.After(d, func() {
		e.tr.fired++
		e.tr.begin(e.owner)
		fn()
		e.tr.end()
	})
	e.tr.end()
	return cancel
}

// tracedHandler wraps a node's packet handler in a span of the engine's layer.
func tracedHandler(tr *tracer, owner layer, h func([]byte)) func([]byte) {
	return func(b []byte) {
		tr.begin(owner)
		h(b)
		tr.end()
	}
}

// tracedProcess is the shim around a receiver node's loss.Process.
type tracedProcess struct {
	loss.Process
	tr *tracer
}

func (p *tracedProcess) Lost(dt float64) bool {
	p.tr.begin(layLoss)
	lost := p.Process.Lost(dt)
	p.tr.end()
	return lost
}

// tracedPopulation is the shim around the field's loss.Population. It wraps
// a SubsetPopulation so the field still finds the sparse and subset draw
// kernels behind it.
type tracedPopulation struct {
	loss.SubsetPopulation
	tr *tracer
}

func (p *tracedPopulation) DrawLost(dt float64) []int {
	p.tr.begin(layLoss)
	lost := p.SubsetPopulation.DrawLost(dt)
	p.tr.end()
	return lost
}

func (p *tracedPopulation) DrawLostAmong(dt float64, among []int) []int {
	p.tr.begin(layLoss)
	lost := p.SubsetPopulation.DrawLostAmong(dt, among)
	p.tr.end()
	return lost
}
