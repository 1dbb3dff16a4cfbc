//go:build linux

// Linux batch-send path: MulticastBatch drains a sender batch through
// sendmmsg(2), one system call per chunk of up to batchChunk datagrams,
// instead of one write(2) per frame. The socket stays registered with the
// runtime poller — the syscall runs inside RawConn.Write, whose callback
// contract handles EAGAIN by parking on the poller exactly like the
// stdlib's own write path — so batching changes only how many datagrams
// each kernel crossing carries, not any blocking or Close semantics.
//
// Everything here is stdlib-only: the mmsghdr layout is declared locally
// (it is msghdr plus a kernel-filled length, and Go's natural alignment
// of the pointer-bearing msghdr reproduces the kernel's stride on both
// 64-bit and 386 — do NOT add explicit padding), and the syscall is
// invoked by number via syscall.Syscall6.
package udpcast

import (
	"syscall"
	"unsafe"
)

// batchChunk bounds one sendmmsg call and sizes the reused scratch
// arrays: 64 entries cover the sender's default Pipeline.Batch of 32
// twice over, and at ~72 B per entry the scratch stays under 8 KiB.
const batchChunk = 64

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// kernel-written count of bytes sent for that message. The kernel pads
// the struct to the msghdr's pointer alignment; Go's struct layout does
// the same, so unsafe.Sizeof(mmsghdr{}) matches the kernel stride.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// batcher holds the per-Conn sendmmsg state. All fields are guarded by
// Conn.batchMu; the write callback is built once at Join so the hot path
// allocates nothing, and communicates with send through the off/cnt/
// calls/errno fields rather than per-call captures.
type batcher struct {
	raw  syscall.RawConn
	msgs [batchChunk]mmsghdr
	iovs [batchChunk]syscall.Iovec

	// Callback state, valid only while Conn.batchMu is held.
	off   int // first message of msgs not yet accepted by the kernel
	cnt   int // messages loaded into msgs for this chunk
	calls uint64
	errno syscall.Errno

	write func(fd uintptr) bool
}

// initBatch wires the Conn's send socket to the sendmmsg batcher. Any
// failure to obtain the raw descriptor just leaves the portable path on.
func (c *Conn) initBatch() {
	raw, err := c.sc.SyscallConn()
	if err != nil {
		c.portableBatch = true
		return
	}
	bt := &c.bt
	bt.raw = raw
	for i := range bt.msgs {
		bt.msgs[i].hdr.Iov = &bt.iovs[i]
		bt.msgs[i].hdr.Iovlen = 1
	}
	bt.write = func(fd uintptr) bool {
		for bt.off < bt.cnt {
			r, _, e := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&bt.msgs[bt.off])),
				uintptr(bt.cnt-bt.off), 0, 0, 0)
			bt.calls++
			switch e {
			case 0:
				bt.off += int(r)
			case syscall.EINTR:
				// Interrupted before sending anything; retry in place.
			case syscall.EAGAIN:
				// Socket buffer full: returning false parks the goroutine
				// on the runtime poller until writable, then retries.
				return false
			default:
				bt.errno = e
				return true
			}
		}
		return true
	}
}

// send drains frames through sendmmsg in chunks, reporting how many
// leading frames the kernel accepted. On ENOSYS/EPERM (kernel or seccomp
// without the syscall) it flips the Conn to the portable path for good
// and finishes this batch there, so callers never see the probe fail.
func (b *batcher) send(c *Conn, frames [][]byte) (int, error) {
	total := 0
	for total < len(frames) {
		chunk := frames[total:]
		if len(chunk) > batchChunk {
			chunk = chunk[:batchChunk]
		}
		for i, f := range chunk {
			if len(f) > 0 {
				b.iovs[i].Base = &f[0]
			} else {
				b.iovs[i].Base = nil
			}
			b.iovs[i].SetLen(len(f))
			b.msgs[i].n = 0
		}
		b.off, b.cnt, b.errno = 0, len(chunk), 0
		werr := b.raw.Write(b.write)
		c.m.sysBatch.Add(b.calls)
		b.calls = 0
		total += b.off
		// Drop the borrowed frame pointers before returning: the scratch
		// must not keep the caller's buffers reachable past the call.
		for i := range chunk {
			b.iovs[i].Base = nil
		}
		if werr != nil {
			return total, werr
		}
		if b.errno != 0 {
			if b.errno == syscall.ENOSYS || b.errno == syscall.EPERM {
				c.portableBatch = true
				n, err := c.writeBatch(frames[total:])
				return total + n, err
			}
			return total, b.errno
		}
	}
	return total, nil
}
