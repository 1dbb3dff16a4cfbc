package udpcast

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"rmfec/internal/metrics"
)

// batchFrames builds n distinguishable small frames.
func batchFrames(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = []byte{'f', byte(i), byte(i), byte(i)}
	}
	return frames
}

// TestBatchPortableFallback forces the per-frame Write loop (the only
// path off Linux) and proves it delivers every frame and accounts one
// write syscall per datagram with zero sendmmsg calls — the fallback the
// sendmmsg path must stay observably equivalent to.
func TestBatchPortableFallback(t *testing.T) {
	group := groupAddr(t)
	a := join(t, group)
	b := join(t, group)
	a.Instrument(metrics.NewRegistry())
	a.portableBatch = true

	got := make(chan []byte, 16)
	b.Serve(func(p []byte) { got <- append([]byte(nil), p...) })
	time.Sleep(50 * time.Millisecond)

	frames := batchFrames(5)
	sent, err := a.MulticastBatch(frames)
	if err != nil || sent != len(frames) {
		t.Fatalf("MulticastBatch = (%d, %v), want (%d, nil)", sent, err, len(frames))
	}
	if v := a.m.sysWrite.Value(); v != uint64(len(frames)) {
		t.Errorf("write syscalls = %d, want %d", v, len(frames))
	}
	if v := a.m.sysBatch.Value(); v != 0 {
		t.Errorf("sendmmsg syscalls = %d on the portable path, want 0", v)
	}
	if v := a.m.txData.Value(); v != uint64(len(frames)) {
		t.Errorf("txData = %d, want %d", v, len(frames))
	}
	for i := range frames {
		select {
		case p := <-got:
			if !bytes.Equal(p, frames[i]) {
				t.Fatalf("frame %d: got %q, want %q", i, p, frames[i])
			}
		case <-time.After(2 * time.Second):
			t.Skip("multicast loopback not delivering in this environment")
		}
	}
}

// TestBatchSyscallAmortization proves the platform batch path (sendmmsg
// on Linux) covers many frames per kernel crossing: sending more frames
// than one chunk must cost at most ceil(n/batchChunk)+slack syscalls,
// not one per frame. Off Linux — or when the kernel rejected sendmmsg at
// Join and the Conn fell back — the test is vacuous and skips.
func TestBatchSyscallAmortization(t *testing.T) {
	a := join(t, groupAddr(t))
	a.Instrument(metrics.NewRegistry())
	if a.portableBatch {
		t.Skip("no kernel batch path on this platform")
	}
	frames := batchFrames(100)
	sent, err := a.MulticastBatch(frames)
	if a.portableBatch {
		t.Skip("kernel rejected sendmmsg; portable fallback took over")
	}
	if err != nil || sent != len(frames) {
		t.Fatalf("MulticastBatch = (%d, %v), want (%d, nil)", sent, err, len(frames))
	}
	if v := a.m.sysWrite.Value(); v != 0 {
		t.Errorf("write syscalls = %d on the batch path, want 0", v)
	}
	calls := a.m.sysBatch.Value()
	if calls == 0 {
		t.Fatal("no sendmmsg calls recorded")
	}
	// 100 frames over 64-entry chunks is 2 calls; EAGAIN retries may add
	// a few more, but anywhere near one-per-frame means no amortization.
	if calls > 10 {
		t.Errorf("sendmmsg calls = %d for %d frames; batching is not amortizing", calls, len(frames))
	}
	if v := a.m.txData.Value(); v != uint64(len(frames)) {
		t.Errorf("txData = %d, want %d", v, len(frames))
	}
}

// TestBatchPartialSendAccounting injects a partial send through the test
// seam and proves the metrics/error accounting the syscall path shares:
// sent frames count as data+bytes, the abandoned remainder as errors.
func TestBatchPartialSendAccounting(t *testing.T) {
	a := join(t, groupAddr(t))
	a.Instrument(metrics.NewRegistry())
	boom := errors.New("injected: buffer full")
	a.batchHook = func(frames [][]byte) (int, error) { return 3, boom }

	frames := batchFrames(8)
	sent, err := a.MulticastBatch(frames)
	if sent != 3 || err != boom {
		t.Fatalf("MulticastBatch = (%d, %v), want (3, %v)", sent, err, boom)
	}
	var wantBytes uint64
	for _, f := range frames[:3] {
		wantBytes += uint64(len(f))
	}
	if v := a.m.txData.Value(); v != 3 {
		t.Errorf("txData = %d, want 3", v)
	}
	if v := a.m.txBytes.Value(); v != wantBytes {
		t.Errorf("txBytes = %d, want %d", v, wantBytes)
	}
	if v := a.m.txErrors.Value(); v != 5 {
		t.Errorf("txErrors = %d, want 5 (the abandoned frames)", v)
	}

	// Full failure: nothing sent, everything an error.
	a.batchHook = func(frames [][]byte) (int, error) { return 0, boom }
	if sent, err := a.MulticastBatch(frames); sent != 0 || err != boom {
		t.Fatalf("failed batch = (%d, %v), want (0, %v)", sent, err, boom)
	}
	if v := a.m.txErrors.Value(); v != 5+8 {
		t.Errorf("txErrors = %d, want 13", v)
	}

	// Success through the hook: no new errors.
	a.batchHook = func(frames [][]byte) (int, error) { return len(frames), nil }
	if sent, err := a.MulticastBatch(frames); sent != len(frames) || err != nil {
		t.Fatalf("ok batch = (%d, %v)", sent, err)
	}
	if v := a.m.txErrors.Value(); v != 13 {
		t.Errorf("txErrors = %d after clean batch, want 13", v)
	}
}

// TestBatchClosedAccountsAllFrames pins the Close fast path: a batch
// against a closed Conn reports every frame as an error.
func TestBatchClosedAccountsAllFrames(t *testing.T) {
	a := join(t, groupAddr(t))
	a.Instrument(metrics.NewRegistry())
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	frames := batchFrames(6)
	sent, err := a.MulticastBatch(frames)
	if sent != 0 || err != ErrClosed {
		t.Fatalf("MulticastBatch after Close = (%d, %v), want (0, ErrClosed)", sent, err)
	}
	if v := a.m.txErrors.Value(); v != uint64(len(frames)) {
		t.Errorf("txErrors = %d, want %d", v, len(frames))
	}
}

// TestBatchPathsDeliverIdentically sends one batch down the platform path
// and one down the forced portable path and checks the receiver sees the
// same frames either way — the fallback-equivalence contract.
func TestBatchPathsDeliverIdentically(t *testing.T) {
	group := groupAddr(t)
	a := join(t, group)
	b := join(t, group)
	got := make(chan []byte, 32)
	b.Serve(func(p []byte) { got <- append([]byte(nil), p...) })
	time.Sleep(50 * time.Millisecond)

	frames := batchFrames(7)
	recv := func(label string) [][]byte {
		t.Helper()
		var out [][]byte
		for range frames {
			select {
			case p := <-got:
				out = append(out, p)
			case <-time.After(2 * time.Second):
				t.Skipf("%s: multicast loopback not delivering in this environment", label)
			}
		}
		return out
	}
	if sent, err := a.MulticastBatch(frames); err != nil || sent != len(frames) {
		t.Fatalf("platform batch = (%d, %v)", sent, err)
	}
	viaPlatform := recv("platform path")
	a.batchMu.Lock()
	a.portableBatch = true
	a.batchMu.Unlock()
	if sent, err := a.MulticastBatch(frames); err != nil || sent != len(frames) {
		t.Fatalf("portable batch = (%d, %v)", sent, err)
	}
	viaPortable := recv("portable path")
	for i := range frames {
		if !bytes.Equal(viaPlatform[i], viaPortable[i]) {
			t.Errorf("frame %d differs between batch paths: %q vs %q", i, viaPlatform[i], viaPortable[i])
		}
	}
}

// TestSendPathsZeroAlloc pins the transport's share of the per-packet
// cost: Multicast and MulticastControl (send), MulticastBatch through
// sendmmsg, and MulticastBatch on the portable per-frame loop (writeBatch)
// allocate nothing per call on an instrumented Conn. Sending needs only a
// joined group, not loopback delivery.
func TestSendPathsZeroAlloc(t *testing.T) {
	c := join(t, groupAddr(t))
	c.Instrument(metrics.NewRegistry())
	kernel := !c.portableBatch // Join found the socket sendmmsg needs
	frame := []byte("zero-alloc frame")
	frames := batchFrames(8)
	batch := func(t *testing.T) {
		if n, err := c.MulticastBatch(frames); err != nil || n != len(frames) {
			t.Fatalf("MulticastBatch = (%d, %v)", n, err)
		}
	}
	for _, tc := range []struct {
		name     string
		portable bool
		send     func(t *testing.T)
	}{
		{"send", false, func(t *testing.T) {
			if c.Multicast(frame) != nil || c.MulticastControl(frame) != nil {
				t.Fatal("send failed")
			}
		}},
		{"sendmmsg", false, batch},
		{"portable", true, batch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "sendmmsg" && !kernel {
				t.Skip("no kernel batch path on this platform")
			}
			c.portableBatch = tc.portable
			allocs := testing.AllocsPerRun(100, func() { tc.send(t) })
			if tc.name == "sendmmsg" && c.portableBatch {
				t.Skip("kernel rejected sendmmsg; the portable loop ran instead")
			}
			if allocs != 0 {
				t.Errorf("%s: %.1f allocs/call, want 0", tc.name, allocs)
			}
		})
	}
}
