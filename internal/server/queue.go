package server

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrSaturated reports an admission-control rejection: the pending queue is
// at its bound. Handlers map it to HTTP
// 503 "queue_full" and /readyz reports it.
var ErrSaturated = errors.New("server: queue saturated")

// ErrClosed reports a submission after drain began.
var ErrClosed = errors.New("server: draining, not accepting work")

// ErrShutdown reports a queued job aborted by the drain policy: the server
// shut down before a worker ever picked it up. Handlers and the jobs
// subsystem map it to a terminal "shutdown" outcome, never silence.
var ErrShutdown = errors.New("server: shut down before the queued request started")

// ErrWorkerPanic wraps a panic that escaped a job's own recovery — the
// worker's last-resort backstop keeps both the worker and the job's waiter
// alive.
var ErrWorkerPanic = errors.New("server: worker panic")

// job is one queued request. Higher priority runs sooner; equal priority is
// FIFO by sequence number. index is the heap slot (-1 once dequeued) so a
// cancelled waiter can withdraw a still-pending job in O(log n).
type job struct {
	priority   int
	seq        uint64
	run        func()
	done       chan struct{}
	index      int
	enqueuedAt time.Time

	// err is the job's terminal error when it never ran (aborted by the
	// drain policy, withdrawn by a deadline) or when a panic escaped run.
	// Written before done closes; read only after.
	err error
	// onAbort, when set, observes an abort (the job resolved without
	// running) before done closes — the async jobs' hook for recording a
	// terminal status a waiterless job would otherwise lose.
	onAbort func(error)
}

// abort resolves a job that will never run: the onAbort hook first (async
// jobs record their terminal status there), then the terminal error for any
// synchronous waiter, then done. The caller must have removed the job from
// the pending heap (withdraw/abortPending) — a job a worker owns must not be
// aborted.
func (j *job) abort(err error) {
	if j.onAbort != nil {
		j.onAbort(err)
	}
	j.err = err
	close(j.done)
}

// jobHeap orders pending jobs: max-priority first, FIFO within a priority.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.index = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*h = old[:n-1]
	return j
}

// pool is the bounded, prioritized worker pool every request runs on. A
// fixed number of workers drain the heap; admission control is the queue
// bound, not the priority — a full queue rejects rather than grows.
type pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	pending  jobHeap
	seq      uint64
	workers  int
	depth    int
	inflight int
	closed   bool
	wg       sync.WaitGroup

	// onWait, when set before any submission, observes each job's queue
	// wait (enqueue→dequeue) — the server feeds it into the
	// server_queue_wait_ns histogram.
	onWait func(time.Duration)
}

func newPool(workers, depth int) *pool {
	p := &pool{workers: workers, depth: depth}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.pending) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.pending) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		j := heap.Pop(&p.pending).(*job)
		p.inflight++
		onWait := p.onWait
		p.mu.Unlock()

		if onWait != nil {
			onWait(time.Since(j.enqueuedAt))
		}
		p.runJob(j)

		p.mu.Lock()
		p.inflight--
		p.mu.Unlock()
	}
}

// runJob executes one job with the worker's last-resort panic backstop: a
// panic that escapes the job's own recovery becomes the job's terminal error
// instead of killing the worker — and done always closes, so no waiter hangs
// on a crashed request.
func (p *pool) runJob(j *job) {
	defer close(j.done)
	defer func() {
		if r := recover(); r != nil {
			j.err = fmt.Errorf("%w: %v", ErrWorkerPanic, r)
		}
	}()
	j.run()
}

// enqueue admits fn into the queue without waiting for it to run — the
// async half of submit, and what the jobs API is built on. The admission
// decision (ErrSaturated/ErrClosed) is synchronous; the returned job
// handle supports wait and position. onAbort (optional) is bound before the
// job becomes visible to workers or abortPending, so an abort can never race
// past it.
func (p *pool) enqueue(priority int, fn func(), onAbort func(error)) (*job, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if len(p.pending) >= p.depth {
		p.mu.Unlock()
		return nil, ErrSaturated
	}
	j := &job{priority: priority, seq: p.seq, run: fn, done: make(chan struct{}), enqueuedAt: time.Now(), onAbort: onAbort}
	p.seq++
	heap.Push(&p.pending, j)
	p.mu.Unlock()
	p.cond.Signal()
	return j, nil
}

// wait blocks until j has run, or ctx is cancelled while it is still
// pending. Cancellation after a worker picked the job waits for fn to
// return (fn observes the same ctx and winds down promptly). The returned
// error is ctx's on withdrawal, or the job's own terminal error (abort,
// escaped panic) when it resolved without running normally.
func (p *pool) wait(ctx context.Context, j *job) error {
	select {
	case <-j.done:
		return j.err
	case <-ctx.Done():
		p.mu.Lock()
		if j.index >= 0 { // still pending: withdraw, never runs
			heap.Remove(&p.pending, j.index)
			p.mu.Unlock()
			return ctx.Err()
		}
		p.mu.Unlock()
		<-j.done // already running (or aborted): the owner resolves it
		return j.err
	}
}

// withdraw removes a still-pending job from the heap so it never runs,
// reporting whether it was still pending. False means a worker already owns
// it (or it was withdrawn/aborted before) and the caller must not abort it.
func (p *pool) withdraw(j *job) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if j.index < 0 {
		return false
	}
	heap.Remove(&p.pending, j.index)
	return true
}

// submit enqueues fn and blocks until it has run, the queue rejects it, or
// ctx is cancelled while it is still pending — enqueue and wait in one call,
// the synchronous endpoints' path.
func (p *pool) submit(ctx context.Context, priority int, fn func()) error {
	j, err := p.enqueue(priority, fn, nil)
	if err != nil {
		return err
	}
	return p.wait(ctx, j)
}

// position reports j's 1-based place among pending jobs (1 = next to run),
// or 0 once a worker has picked it up (or it was withdrawn).
func (p *pool) position(j *job) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if j.index < 0 {
		return 0
	}
	pos := 1
	for _, o := range p.pending {
		if o != j && (o.priority > j.priority || (o.priority == j.priority && o.seq < j.seq)) {
			pos++
		}
	}
	return pos
}

// saturated reports whether the next submit would be rejected.
func (p *pool) saturated() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed || len(p.pending) >= p.depth
}

// stats returns the pending and inflight counts (queue-depth gauges).
func (p *pool) stats() (pending, inflight int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending), p.inflight
}

// close stops admissions; queued and inflight jobs still complete.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// abortPending closes the pool and withdraws every queued-but-unstarted job,
// resolving each with err — the drain policy: work that never started gets a
// terminal answer (a 503 "shutdown" envelope, a terminal job status), not a
// race against the drain window. In-flight jobs are untouched. Returns how
// many jobs were aborted.
func (p *pool) abortPending(err error) int {
	p.mu.Lock()
	p.closed = true
	aborted := p.pending
	p.pending = nil
	for _, j := range aborted {
		j.index = -1
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	for _, j := range aborted {
		j.abort(err)
	}
	return len(aborted)
}

// drain closes the pool and waits for every worker to exit.
func (p *pool) drain() {
	p.close()
	p.wg.Wait()
}

// drainWithin closes the pool and waits up to d for every worker to exit.
// False means a worker was still running at the deadline — a stalled worker
// must never hold shutdown hostage, so the caller proceeds and the worker
// goroutine is deliberately abandoned to process exit.
func (p *pool) drainWithin(d time.Duration) bool {
	p.close()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	if d <= 0 {
		d = time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}
