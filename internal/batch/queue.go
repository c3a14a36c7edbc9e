package batch

import (
	"context"
	"runtime"
	"sync/atomic"
)

// Queue is the long-lived, admission-controlled sibling of Pool: where a
// Pool parallelizes one caller's batch, a Queue is shared by many
// concurrent callers (the solver service's requests) and bounds both the
// number of solves running at once and the number allowed to wait. Work
// beyond workers+depth is rejected at admission instead of queueing
// without bound — under overload the service sheds load with an
// immediate "try again" rather than letting latency grow until every
// client times out.
//
// A Queue is safe for concurrent use. The zero value is not usable; see
// NewQueue.
type Queue struct {
	workers int
	depth   int
	// slots holds one token per running solve; admit holds one token per
	// admitted (queued or running) solve.
	slots chan struct{}
	admit chan struct{}

	queued   atomic.Int64
	running  atomic.Int64
	rejected atomic.Int64
}

// NewQueue returns a queue running at most workers concurrent solves
// (<= 0 selects GOMAXPROCS) and admitting at most depth additional
// waiting solves (< 0 selects 4x workers; 0 disables queueing, so every
// solve beyond the worker count is rejected).
func NewQueue(workers, depth int) *Queue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth < 0 {
		depth = 4 * workers
	}
	return &Queue{
		workers: workers,
		depth:   depth,
		slots:   make(chan struct{}, workers),
		admit:   make(chan struct{}, workers+depth),
	}
}

// Workers reports the maximum number of concurrent solves.
func (q *Queue) Workers() int { return q.workers }

// Depth reports the maximum number of admitted-but-waiting solves.
func (q *Queue) Depth() int { return q.depth }

// Queued reports the number of admitted solves waiting for a worker
// slot.
func (q *Queue) Queued() int64 { return q.queued.Load() }

// Running reports the number of solves currently executing.
func (q *Queue) Running() int64 { return q.running.Load() }

// Rejected reports the total number of solves refused at admission.
func (q *Queue) Rejected() int64 { return q.rejected.Load() }

// Do solves one task through the queue. admitted=false means the task
// was refused at admission (workers+depth solves already in the system)
// without any work done — the service maps this to 503. An admitted
// task waits for a worker slot (or its context) and then solves exactly
// like Pool does; a context that dies while waiting yields
// Outcome{Err: ctx.Err()} with admitted=true.
func (q *Queue) Do(ctx context.Context, t Task) (out Outcome, admitted bool) {
	select {
	case q.admit <- struct{}{}:
	default:
		q.rejected.Add(1)
		return Outcome{}, false
	}
	defer func() { <-q.admit }()

	q.queued.Add(1)
	select {
	case q.slots <- struct{}{}:
	case <-ctx.Done():
		q.queued.Add(-1)
		return Outcome{Err: ctx.Err()}, true
	}
	q.queued.Add(-1)
	q.running.Add(1)
	defer func() {
		q.running.Add(-1)
		<-q.slots
	}()
	return solveOne(ctx, t), true
}
