package metrics

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// An Event is one fixed-size protocol event in a Tracer's ring. Kind
// should be a package-level string constant (assigning a constant string
// copies a header, it does not allocate); A and B carry event-specific
// small integers (group index, deficit, byte count...).
type Event struct {
	At   time.Duration `json:"at"`   // engine time (Env.Now) of the event
	Kind string        `json:"kind"` // constant event name, e.g. "nak_rx"
	A    uint64        `json:"a"`    // first operand (e.g. TG index)
	B    uint64        `json:"b"`    // second operand (e.g. deficit)
}

// Tracer is a bounded ring buffer of recent protocol events: the last cap
// events are retained, older ones are overwritten. Record never allocates
// and takes an uncontended mutex, so engines can trace per-packet events
// on the hot path; Snapshot (and the HTTP handler) copy the ring for
// readers. All methods are safe on a nil receiver and for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	ring  []Event
	total uint64 // events ever recorded
}

// NewTracer returns a tracer retaining the last capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Event, capacity)}
}

// Record appends ev, overwriting the oldest event once the ring is full.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.total%uint64(len(t.ring))] = ev
	t.total++
	t.mu.Unlock()
}

// Total returns the number of events ever recorded (not just retained).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns the retained events, oldest first.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.total
	capU := uint64(len(t.ring))
	if n > capU {
		out := make([]Event, capU)
		start := n % capU // oldest retained slot
		copied := copy(out, t.ring[start:])
		copy(out[copied:], t.ring[:start])
		return out
	}
	return append([]Event(nil), t.ring[:n]...)
}

// Handler returns an http.Handler dumping the retained events as a JSON
// array, oldest first.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		evs := t.Snapshot()
		if evs == nil {
			evs = []Event{} // an empty trace is "[]", not "null"
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(evs)
	})
}
