package core

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// loopEnv is a minimal deterministic Env for transcript tests: a
// single-threaded virtual-time event loop (min-heap ordered by time, FIFO
// within one instant) whose Multicast appends every frame to a transcript
// hash. It honours the Env ownership contract — frames are hashed before
// Multicast returns, so the engine may recycle them immediately.
type loopEnv struct {
	now   time.Duration
	seq   int
	queue timerHeap
	rng   *rand.Rand

	// deliver, if set, receives every frame synchronously (loopback peer).
	deliver func(b []byte)

	hash *transcriptHash
}

func newLoopEnv(seed int64) *loopEnv {
	return &loopEnv{rng: rand.New(rand.NewSource(seed)), hash: newTranscriptHash()}
}

func (e *loopEnv) Now() time.Duration { return e.now }
func (e *loopEnv) Rand() *rand.Rand   { return e.rng }

func (e *loopEnv) Multicast(b []byte) error {
	e.hash.add(b)
	if e.deliver != nil {
		e.deliver(b)
	}
	return nil
}

func (e *loopEnv) MulticastControl(b []byte) error { return e.Multicast(b) }

func (e *loopEnv) After(d time.Duration, fn func()) (cancel func()) {
	t := &timerEvent{at: e.now + d, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, t)
	return func() { t.fn = nil }
}

// run drains the event queue, advancing virtual time.
func (e *loopEnv) run() {
	for e.queue.Len() > 0 {
		t := heap.Pop(&e.queue).(*timerEvent)
		e.now = t.at
		if t.fn != nil {
			t.fn()
		}
	}
}

type timerEvent struct {
	at  time.Duration
	seq int
	fn  func()
}

type timerHeap []*timerEvent

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timerEvent)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// transcriptHash accumulates a length-framed SHA-256 over a frame sequence.
type transcriptHash struct {
	n int
	h interface {
		Write(p []byte) (int, error)
		Sum(b []byte) []byte
	}
}

func newTranscriptHash() *transcriptHash { return &transcriptHash{h: sha256.New()} }

func (t *transcriptHash) add(b []byte) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	t.h.Write(hdr[:])
	t.h.Write(b)
	t.n++
}

func (t *transcriptHash) sum() string {
	return fmt.Sprintf("%d:%x", t.n, t.h.Sum(nil))
}

func transcriptMsg(n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i*7 + 3)
	}
	return msg
}

// senderTranscript runs a lossless sender-only transfer to completion and
// returns the length-framed hash of every multicast frame in order.
func senderTranscript(t *testing.T, cfg Config, msgLen int) string {
	t.Helper()
	env := newLoopEnv(1)
	s, err := NewSender(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Send(transcriptMsg(msgLen)); err != nil {
		t.Fatal(err)
	}
	env.run()
	return env.hash.sum()
}

// Golden transcripts of the serial (pre-pipeline) sender, recorded from
// the seed implementation. The zero-value pipeline configuration must keep
// producing these exact byte sequences: depth=0 IS the reference path.
const (
	goldenSmallTranscript = "15:e79dbfcef08b2b771e693bee578ab824073587394270f68e8e9eb35e72d71ab9"
	goldenWideTranscript  = "190:3cde42084ffc7501bf401042fe5535be44e9851f4b3cd482e00e5ec6de477602"
)

func transcriptCfgSmall() Config {
	return Config{Session: 7, K: 4, MaxParity: 2, Proactive: 1,
		ShardSize: 16, Delta: time.Millisecond, FinCount: 2}
}

func transcriptCfgWide() Config {
	return Config{Session: 9, K: 20, MaxParity: 5, Proactive: 2,
		ShardSize: 64, Delta: time.Millisecond}
}

// TestSerialTranscriptGolden pins the sender's wire transcript against the
// recorded pre-pipeline serial behaviour.
func TestSerialTranscriptGolden(t *testing.T) {
	if got := senderTranscript(t, transcriptCfgSmall(), 100); got != goldenSmallTranscript {
		t.Errorf("small transcript drifted from the serial reference:\n got %s\nwant %s", got, goldenSmallTranscript)
	}
	if got := senderTranscript(t, transcriptCfgWide(), 10000); got != goldenWideTranscript {
		t.Errorf("wide transcript drifted from the serial reference:\n got %s\nwant %s", got, goldenWideTranscript)
	}
}
