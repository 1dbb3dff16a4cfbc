// Package pipeline provides the bounded worker pool behind the NP sender's
// encode-ahead stage: a fixed set of indexed jobs (one per transmission
// group) runs on a small number of worker goroutines while the owning
// engine keeps transmitting, so parity encoding overlaps network send
// instead of stalling it.
//
// Like internal/mcrun, the package concentrates ALL concurrency above the
// single-threaded protocol engines and keeps the result deterministic:
// each job writes only its own, disjoint output slot, jobs are submitted
// in index order, and Wait(i) establishes a happens-before edge between
// job i's completion and the owner's read of its output. The job outputs
// are therefore a pure function of the job index — independent of worker
// count and goroutine scheduling — which is what lets a pipelined sender
// produce a transcript byte-identical to the serial reference path.
//
// Ownership rules (see DESIGN.md "Transmit pipeline"):
//
//   - exactly one goroutine — the owner — calls Prefetch, Wait and Close;
//   - the run callback must touch only state belonging to job i;
//   - the owner must not read job i's output before Wait(i) returns;
//   - after Close, no further Prefetch or Wait calls are allowed.
package pipeline

import "sync"

// Pool executes n indexed jobs on a bounded set of workers. The zero value
// is not usable; construct with New.
type Pool struct {
	run  func(i int)
	n    int
	jobs chan int
	done []chan struct{}

	// Owner-side state: touched only by the Prefetch/Wait/Close caller.
	next   int // first job not yet submitted
	closed bool

	quit chan struct{}
	wg   sync.WaitGroup
}

// New starts a pool of `workers` goroutines prepared to run jobs 0..n-1
// through run. workers < 1 is clamped to 1; no job runs until Prefetch or
// Wait submits it, so construction is cheap and deterministic.
func New(n, workers int, run func(i int)) *Pool {
	if n < 0 {
		n = 0
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n && n > 0 {
		workers = n
	}
	p := &Pool{
		run:  run,
		n:    n,
		jobs: make(chan int, n),
		done: make([]chan struct{}, n),
		quit: make(chan struct{}),
	}
	for i := range p.done {
		p.done[i] = make(chan struct{})
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case i := <-p.jobs:
			p.run(i)
			close(p.done[i])
		}
	}
}

// Submitted returns how many jobs have been handed to the workers.
func (p *Pool) Submitted() int { return p.next }

// Prefetch submits every not-yet-submitted job with index <= upto. It
// never blocks: the job channel is sized for all n jobs.
func (p *Pool) Prefetch(upto int) {
	if p.closed {
		return
	}
	if upto >= p.n {
		upto = p.n - 1
	}
	for p.next <= upto {
		p.jobs <- p.next
		p.next++
	}
}

// Wait blocks until job i has completed, submitting it (and any earlier
// unsubmitted jobs) first if necessary. It reports whether the job was
// already complete on entry — the "encode-ahead hit" signal. After Wait
// returns, the owner may read everything job i wrote.
func (p *Pool) Wait(i int) (ready bool) {
	if i < 0 || i >= p.n || p.closed {
		return false
	}
	p.Prefetch(i)
	select {
	case <-p.done[i]:
		return true
	default:
	}
	<-p.done[i]
	return false
}

// Close stops the workers and waits for the in-flight jobs to finish.
// Submitted-but-unstarted jobs are abandoned; their done channels never
// close, so the owner must not Wait after Close. Close is idempotent.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.quit)
	p.wg.Wait()
}
