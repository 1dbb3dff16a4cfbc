package core

// This file holds the two allocation-free building blocks of the pipelined
// data path: a LIFO free-list of wire/shard buffers and a ring-buffer deque
// for the paced send queue. Both are single-owner structures used only from
// an engine's serialized callbacks, so they need no locking.

// bufPool is a LIFO free-list of byte buffers. Engines route every wire
// frame (sender) and shard buffer (receiver) through one, so the steady
// state recycles a small working set instead of allocating per packet.
//
// All pool buffers are allocated with at least minCap capacity. The pools
// mix buffer sizes — a sender frames 24-byte POLLs and header+shard DATA
// packets from the same pool — and a uniform capacity floor keeps any
// recycled buffer usable for any request, so the free-list never thrashes
// between size classes.
type bufPool struct {
	free   [][]byte
	minCap int
}

// get returns a length-n buffer, reusing a pooled one when possible.
func (p *bufPool) get(n int) []byte {
	if m := len(p.free); m > 0 {
		b := p.free[m-1]
		p.free[m-1] = nil
		p.free = p.free[:m-1]
		if cap(b) >= n {
			return b[:n]
		}
		// Undersized stray (pool reconfigured); drop it and allocate.
	}
	c := n
	if c < p.minCap {
		c = p.minCap
	}
	// pool miss: steady state reuses pooled buffers
	return make([]byte, c)[:n]
}

// put returns a buffer to the pool. The caller must not touch b afterwards.
func (p *bufPool) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	// free-list growth is amortized across the session
	p.free = append(p.free, b)
}

// outQueue is a growable ring-buffer deque of queued transmissions. The
// serial sender popped a []outPkt slice from the front and prepended repair
// rounds with a fresh allocation each time; the deque gives the same
// front/back discipline with O(1) amortized operations and no steady-state
// allocation. Capacity is always a power of two so position arithmetic is a
// mask.
type outQueue struct {
	buf  []outPkt
	head int
	n    int
}

func (q *outQueue) size() int   { return q.n }
func (q *outQueue) empty() bool { return q.n == 0 }

// front returns the next packet to leave without dequeuing it.
func (q *outQueue) front() *outPkt { return &q.buf[q.head] }

func (q *outQueue) grow() {
	c := len(q.buf) * 2
	if c == 0 {
		c = 64
	}
	// ring doubling is amortized; the steady-state ring is already sized
	nb := make([]outPkt, c)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

func (q *outQueue) pushBack(p outPkt) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

func (q *outQueue) pushFront(p outPkt) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = p
	q.n++
}

func (q *outQueue) popFront() outPkt {
	p := q.buf[q.head]
	q.buf[q.head] = outPkt{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return p
}

// reset drops every queued packet, clearing references so abandoned frames
// become collectable.
func (q *outQueue) reset() {
	for q.n > 0 {
		q.popFront()
	}
	q.head = 0
}
