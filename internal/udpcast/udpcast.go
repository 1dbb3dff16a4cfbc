// Package udpcast is the real-network counterpart of internal/simnet: a
// UDP/IP-multicast transport that satisfies the core.Env contract, so the
// exact protocol engines exercised under simulated loss also drive live
// transfers. One Conn joins a multicast group, serialises all engine
// callbacks (packet arrivals, timers) behind one mutex — preserving the
// engines' single-threaded discipline — and multicasts with a real clock.
package udpcast

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rmfec/internal/metrics"
)

// MaxDatagram is the largest datagram Serve will read.
const MaxDatagram = 65507

// ErrClosed is returned after Close.
var ErrClosed = errors.New("udpcast: connection closed")

// Conn is a joined multicast endpoint implementing core.Env.
type Conn struct {
	group *net.UDPAddr
	rc    *net.UDPConn // subscribed receive socket
	sc    *net.UDPConn // send socket

	// mu serialises engine callbacks (packet handler, timers) and Rand
	// access. Engine callbacks run WITH mu held and may call Multicast/
	// MulticastControl re-entrantly, so those methods must not take mu.
	// TestCallbacksMayReenterConn pins this for every Env method under Do;
	// TestNPTransferOverUDP drives it through the real engines.
	mu      sync.Mutex
	handler func(b []byte)
	rng     *rand.Rand
	start   time.Time
	closed  atomic.Bool
	wg      sync.WaitGroup

	// batchMu guards the batch-send scratch (bt and batchHook): several
	// goroutines may call MulticastBatch concurrently and the platform
	// batcher reuses one mmsghdr/iovec array across calls. It is never
	// taken by engine callbacks' re-entrant paths (send/After), so it
	// cannot interact with the engine mutex.
	batchMu sync.Mutex
	// bt is the platform batch-send state: a sendmmsg(2) batcher on Linux
	// (batch_linux.go), empty elsewhere (batch_other.go).
	bt batcher
	// portableBatch forces MulticastBatch onto the per-frame Write loop
	// even where a kernel batch path exists. Set by tests (to cover the
	// fallback on Linux) and by the batcher itself when the kernel rejects
	// the syscall (ENOSYS/EPERM under strict seccomp).
	portableBatch bool
	// batchHook, when non-nil, replaces the wire send of MulticastBatch —
	// a test seam for injecting partial sends and errors while keeping the
	// accounting code under test identical to production.
	batchHook func(frames [][]byte) (int, error)

	m connMetrics
}

// connMetrics is the transport's optional instrument set; the zero value
// (all nil) disables instrumentation.
type connMetrics struct {
	txData    *metrics.Counter
	txControl *metrics.Counter
	txBytes   *metrics.Counter
	txErrors  *metrics.Counter
	sysBatch  *metrics.Counter // sendmmsg(2) invocations
	sysWrite  *metrics.Counter // per-datagram write invocations
	rxPkts    *metrics.Counter
	rxBytes   *metrics.Counter
	drops     *metrics.Counter
	serves    *metrics.Counter
	closes    *metrics.Counter
}

// Instrument registers the transport's live metrics on r: datagrams and
// bytes sent per plane, send errors, datagrams and bytes received, packets
// dropped after Close raced the read loop, and Serve/Close lifecycle
// transitions. Call before Serve; a nil registry disables instrumentation.
func (c *Conn) Instrument(r *metrics.Registry) {
	if r == nil {
		c.m = connMetrics{}
		return
	}
	tx := func(plane string) *metrics.Counter {
		return r.Counter("udpcast_tx_packets_total",
			"datagrams multicast, by protocol plane",
			metrics.Label{Key: "plane", Value: plane})
	}
	sys := func(path string) *metrics.Counter {
		return r.Counter("udpcast_tx_syscalls_total",
			"send-side system calls, by path: one sendmmsg covers a whole batch chunk, one write covers one datagram",
			metrics.Label{Key: "path", Value: path})
	}
	c.m = connMetrics{
		txData:    tx("data"),
		txControl: tx("control"),
		txBytes:   r.Counter("udpcast_tx_bytes_total", "datagram payload bytes multicast"),
		txErrors:  r.Counter("udpcast_tx_errors_total", "datagrams that failed to send (write errors, frames abandoned after a batch error, sends after Close)"),
		sysBatch:  sys("sendmmsg"),
		sysWrite:  sys("write"),
		rxPkts:    r.Counter("udpcast_rx_packets_total", "datagrams delivered to the engine handler"),
		rxBytes:   r.Counter("udpcast_rx_bytes_total", "datagram payload bytes delivered to the engine handler"),
		drops:     r.Counter("udpcast_rx_dropped_total", "datagrams read but discarded because the Conn closed"),
		serves:    r.Counter("udpcast_serves_total", "read loops started by Serve"),
		closes:    r.Counter("udpcast_closes_total", "effective Close calls (first call only)"),
	}
}

// Join subscribes to a multicast group ("239.1.2.3:7654"). ifi selects the
// interface (nil lets the kernel choose, which on most systems includes
// loopback delivery of the host's own transmissions — required when sender
// and receivers share a machine).
func Join(group string, ifi *net.Interface) (*Conn, error) {
	addr, err := net.ResolveUDPAddr("udp4", group)
	if err != nil {
		return nil, fmt.Errorf("udpcast: resolve %q: %w", group, err)
	}
	if !addr.IP.IsMulticast() {
		return nil, fmt.Errorf("udpcast: %v is not a multicast address", addr.IP)
	}
	rc, err := net.ListenMulticastUDP("udp4", ifi, addr)
	if err != nil {
		return nil, fmt.Errorf("udpcast: join %v: %w", addr, err)
	}
	// Best-effort: some systems cap socket buffers, and a small buffer only
	// costs drops under burst — which the protocol exists to repair.
	_ = rc.SetReadBuffer(1 << 20)
	sc, err := net.DialUDP("udp4", nil, addr)
	if err != nil {
		rc.Close()
		return nil, fmt.Errorf("udpcast: dial %v: %w", addr, err)
	}
	c := &Conn{
		group: addr,
		rc:    rc,
		sc:    sc,
		//rmlint:ignore env-discipline transport-side seeding: live receivers must jitter NAK slots differently, not reproducibly
		rng: rand.New(rand.NewSource(time.Now().UnixNano())),
		//rmlint:ignore env-discipline this Conn IS the wall-clock core.Env implementation
		start: time.Now(),
	}
	// Platform batch-send setup (sendmmsg on Linux); on failure the Conn
	// simply keeps the portable per-frame Write path.
	c.initBatch()
	return c, nil
}

// Now implements core.Env with wall-clock time relative to Join.
//
//rmlint:ignore env-discipline this Conn IS the wall-clock core.Env implementation
func (c *Conn) Now() time.Duration { return time.Since(c.start) }

// Rand implements core.Env. Callers run under the engine mutex.
func (c *Conn) Rand() *rand.Rand { return c.rng }

// Multicast implements core.Env. It is safe to call from engine callbacks
// (which hold the engine mutex) — it takes no locks itself.
func (c *Conn) Multicast(b []byte) error { return c.send(b, c.m.txData) }

// MulticastControl implements core.Env; UDP has a single plane, but the
// two entry points are metered separately.
func (c *Conn) MulticastControl(b []byte) error { return c.send(b, c.m.txControl) }

func (c *Conn) send(b []byte, plane *metrics.Counter) error {
	if c.closed.Load() {
		c.m.txErrors.Inc()
		return ErrClosed
	}
	c.m.sysWrite.Inc()
	_, err := c.sc.Write(b)
	if err != nil {
		c.m.txErrors.Inc()
		return err
	}
	plane.Inc()
	c.m.txBytes.Add(uint64(len(b)))
	return nil
}

// MulticastBatch implements core.BatchEnv: it multicasts a run of
// data-plane frames with one closed-check and one metrics update for the
// whole batch, amortizing the per-send bookkeeping the pipelined sender
// pays per pacing tick. On Linux the frames leave through sendmmsg(2) —
// one system call per chunk of up to batchChunk datagrams — falling back
// to the per-frame Write loop elsewhere, when the kernel rejects the
// syscall, or when portableBatch is set. Frames are written in order; it
// returns how many leading frames were sent and the error that stopped
// the rest (frames[:sent] left the host, frames[sent:] did not, and the
// unsent remainder is counted in udpcast_tx_errors_total). Like
// Multicast it never takes the engine mutex, so engine callbacks may
// call it re-entrantly; concurrent MulticastBatch calls serialise on the
// internal scratch lock. No frame is retained after the call returns.
func (c *Conn) MulticastBatch(frames [][]byte) (int, error) {
	if c.closed.Load() {
		c.m.txErrors.Add(uint64(len(frames)))
		return 0, ErrClosed
	}
	c.batchMu.Lock()
	var sent int
	var err error
	switch {
	case c.batchHook != nil:
		sent, err = c.batchHook(frames)
	case c.portableBatch:
		sent, err = c.writeBatch(frames)
	default:
		sent, err = c.bt.send(c, frames)
	}
	c.batchMu.Unlock()
	if sent > len(frames) {
		sent = len(frames) // defensive clamp over the test hook
	}
	var bytes uint64
	for _, b := range frames[:sent] {
		bytes += uint64(len(b))
	}
	c.m.txData.Add(uint64(sent))
	c.m.txBytes.Add(bytes)
	if err != nil {
		c.m.txErrors.Add(uint64(len(frames) - sent))
	}
	return sent, err
}

// writeBatch is the portable batch send: one write(2) per frame. It is
// the only batch path off Linux and the forced/ENOSYS fallback on it.
func (c *Conn) writeBatch(frames [][]byte) (int, error) {
	for i, b := range frames {
		c.m.sysWrite.Inc()
		if _, err := c.sc.Write(b); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

// After implements core.Env: fn runs on the engine mutex unless canceled
// or the Conn is closed first.
func (c *Conn) After(d time.Duration, fn func()) (cancel func()) {
	var canceled bool
	var mu sync.Mutex
	//rmlint:ignore env-discipline this Conn IS the wall-clock core.Env implementation; Env.After maps to a real timer
	timer := time.AfterFunc(d, func() {
		mu.Lock()
		dead := canceled
		mu.Unlock()
		if dead {
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if !c.closed.Load() {
			fn()
		}
	})
	return func() {
		mu.Lock()
		canceled = true
		mu.Unlock()
		timer.Stop()
	}
}

// Serve installs the engine's HandlePacket callback and pumps incoming
// datagrams to it until Close. It returns immediately; reading happens on
// a background goroutine. Datagrams from this host's own send socket are
// delivered too (multicast loopback) — the engines ignore packet types
// they did not subscribe to, mirroring a shared broadcast medium.
//
// The handler is invoked with a slice of the loop's single read buffer,
// which the next datagram overwrites: the handler must copy anything it
// keeps and must not retain the slice after returning. The core engines
// honour this (they decode in place and copy shards into pooled buffers),
// which is what lets the read loop run without a per-datagram allocation;
// TestNPTransferOverUDP and the core transfer tests fail when they do not.
func (c *Conn) Serve(handler func(b []byte)) {
	c.mu.Lock()
	if c.closed.Load() {
		// Registering the reader after Close would leak a goroutine Close
		// no longer waits for. Checking under mu pairs with Close's
		// closed-then-mu ordering: either we see closed here, or Close's
		// wg.Wait happens after our wg.Add.
		c.mu.Unlock()
		return
	}
	c.handler = handler
	c.wg.Add(1)
	c.m.serves.Inc()
	c.mu.Unlock()
	go func() {
		defer c.wg.Done()
		buf := make([]byte, MaxDatagram)
		for {
			n, _, err := c.rc.ReadFromUDP(buf)
			if err != nil {
				return // socket closed
			}
			if c.closed.Load() {
				c.m.drops.Inc()
				return
			}
			c.mu.Lock()
			if h := c.handler; h != nil && !c.closed.Load() {
				c.m.rxPkts.Inc()
				c.m.rxBytes.Add(uint64(n))
				// The handler gets the read buffer itself (see Serve doc);
				// it runs under mu and the next read only starts after it
				// returns, so the buffer is stable for the callback's
				// duration.
				h(buf[:n])
			} else {
				c.m.drops.Inc()
			}
			c.mu.Unlock()
		}
	}()
}

// Do runs fn under the engine mutex; use it to call engine methods (Send,
// Stats) race-free while Serve is active.
func (c *Conn) Do(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
}

// Close leaves the group and stops the read loop. It must not be called
// from an engine callback: callbacks run on the read-loop goroutine, which
// Close waits for.
func (c *Conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.m.closes.Inc()
	// Barrier against a concurrent Serve: once we hold mu, any Serve still
	// in flight has either completed its wg.Add (we will wait for its
	// goroutine) or will observe closed and register nothing.
	c.mu.Lock()
	c.mu.Unlock() //nolint:staticcheck // empty critical section is the point
	err1 := c.rc.Close()
	err2 := c.sc.Close()
	c.wg.Wait()
	if err1 != nil {
		return err1
	}
	return err2
}
