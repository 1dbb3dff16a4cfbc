package pipeline

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestOutputsDeterministic runs the same job set at several worker counts
// and checks the output slots are identical: each job writes only its own
// slot, so scheduling must not be observable.
func TestOutputsDeterministic(t *testing.T) {
	const n = 64
	var want []int
	for _, workers := range []int{1, 2, 4, 7} {
		out := make([]int, n)
		p := New(n, workers, func(i int) { out[i] = i*i + 1 })
		for i := 0; i < n; i++ {
			p.Wait(i)
			if out[i] != i*i+1 {
				t.Fatalf("workers=%d: job %d output %d", workers, i, out[i])
			}
		}
		p.Close()
		if want == nil {
			want = out
			continue
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("workers=%d: slot %d differs from single-worker run", workers, i)
			}
		}
	}
}

func TestPrefetchRunsAhead(t *testing.T) {
	const n = 8
	var ran atomic.Int32
	p := New(n, 2, func(i int) { ran.Add(1) })
	defer p.Close()
	p.Prefetch(3)
	if got := p.Submitted(); got != 4 {
		t.Fatalf("Submitted() = %d after Prefetch(3), want 4", got)
	}
	for i := 0; i <= 3; i++ {
		p.Wait(i)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran %d jobs, want 4", got)
	}
	// Prefetch clamps beyond the job count.
	p.Prefetch(100)
	if got := p.Submitted(); got != n {
		t.Fatalf("Submitted() = %d after over-Prefetch, want %d", got, n)
	}
}

func TestWaitSubmitsOnDemand(t *testing.T) {
	out := make([]int, 5)
	p := New(5, 1, func(i int) { out[i] = i + 10 })
	defer p.Close()
	// No Prefetch: Wait must submit everything up to and including 4.
	if p.Wait(4); out[4] != 14 {
		t.Fatalf("out[4] = %d", out[4])
	}
	if got := p.Submitted(); got != 5 {
		t.Fatalf("Submitted() = %d, want 5", got)
	}
}

func TestHitMissAccounting(t *testing.T) {
	slow := make(chan struct{})
	p := New(2, 1, func(i int) {
		if i == 1 {
			<-slow
		}
	})
	defer p.Close()
	// Once one Wait(0) has returned, job 0 is complete: the next is a hit.
	p.Wait(0)
	if !p.Wait(0) {
		t.Fatal("Wait(0) reported a miss for a completed job")
	}
	// Job 1 blocks until we release it; Wait(1) must be a miss.
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(slow)
	}()
	if p.Wait(1) {
		t.Fatal("Wait(1) reported ready while the job was blocked")
	}
}

func TestCloseIdempotentAndAbandons(t *testing.T) {
	var ran atomic.Int32
	block := make(chan struct{})
	p := New(4, 1, func(i int) {
		if i == 0 {
			<-block
		}
		ran.Add(1)
	})
	p.Prefetch(3)
	close(block)
	p.Close()
	p.Close() // idempotent
	// At least job 0 ran; abandoned jobs are allowed but none may start
	// after Close returned.
	n := ran.Load()
	time.Sleep(20 * time.Millisecond)
	if got := ran.Load(); got != n {
		t.Fatalf("jobs kept running after Close: %d -> %d", n, got)
	}
	// Post-Close calls are inert.
	p.Prefetch(3)
	if p.Wait(3) {
		t.Fatal("Wait after Close reported ready")
	}
}

func TestZeroJobs(t *testing.T) {
	p := New(0, 3, func(i int) { t.Error("job ran in an empty pool") })
	if p.Wait(0) {
		t.Fatal("Wait(0) ready in an empty pool")
	}
	p.Prefetch(10)
	p.Close()
}

// TestRunCompletesAllJobs runs a full job set across worker counts,
// including the clamped 0, and checks every job ran exactly once with its
// own slot.
func TestRunCompletesAllJobs(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		const n = 64
		got := make([]int32, n)
		p := New(n, workers, func(i int) {
			atomic.AddInt32(&got[i], 1)
		})
		p.Prefetch(n - 1)
		for i := 0; i < n; i++ {
			p.Wait(i)
		}
		p.Close()
		for i, v := range got {
			if v != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, v)
			}
		}
	}
}
