// Package batch solves many bag-constrained scheduling instances
// concurrently on a bounded worker pool.
//
// Each EPTAS solve is independent and CPU-bound, so a batch of instances
// parallelizes perfectly across cores without touching the approximation
// guarantee: every instance is solved by exactly the same deterministic
// search it would get from core.Solve, and results are returned in input
// order. This is the architectural seam later sharding and caching layers
// build on — a Pool is the unit that a front-end shards requests onto.
package batch

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
)

// Task is one instance to solve together with its solver options. A
// task with Delta set is an incremental re-solve instead: Prior is the
// prior result (Instance is ignored) and the solve runs
// core.ResolveContext, warm-started from it.
type Task struct {
	// Instance is the instance to schedule. It is not modified.
	Instance *sched.Instance
	// Options configures the solve; Options.Eps must be set.
	Options core.Options
	// Prior and Delta select the incremental re-solve path: Delta is
	// applied to Prior.Input and solved warm-started from Prior. Both
	// must be set together.
	Prior *core.Result
	Delta *sched.Delta
}

// Outcome pairs the result of one task with its error. Exactly one of
// Result and Err is non-nil.
type Outcome struct {
	Result *core.Result
	Err    error
}

// Pool solves batches of instances on a fixed number of workers. A Pool
// is cheap, stateless between calls, and safe for concurrent use; the
// worker count only bounds per-call concurrency.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given worker count; values <= 0 select
// GOMAXPROCS workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Solve solves every task and returns the outcomes in input order,
// regardless of completion order. Tasks are distributed over the pool's
// workers; each individual solve runs exactly the code path of a direct
// core.Solve call and produces identical results.
func (p *Pool) Solve(tasks []Task) []Outcome {
	return p.SolveContext(context.Background(), tasks)
}

// SolveContext is Solve under a context. The context is shared by every
// task: when it is canceled or expires, unfinished solves abort promptly
// (their Outcome.Err is ctx.Err()) while already-finished outcomes are
// kept, so a deadline caps the whole batch's wall-clock time.
func (p *Pool) SolveContext(ctx context.Context, tasks []Task) []Outcome {
	out := make([]Outcome, len(tasks))
	if len(tasks) == 0 {
		return out
	}
	workers := p.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	// In-solve speculation is suppressed only when the batch alone can
	// keep every core busy; a batch narrower than the machine leaves the
	// solver's own parallelism to use the idle cores.
	saturated := workers > 1 && workers >= runtime.GOMAXPROCS(0)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = solveOne(ctx, tasks[i], saturated)
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// solveOne runs one task. When the batch saturates the machine on its
// own and the task does not ask for a specific speculation level,
// in-solve speculation is disabled: instance-level parallelism already
// fills every core, and speculative pipelines would only burn cycles on
// discarded guesses. A batch with fewer effective workers than cores
// keeps the solver's default, so in-solve speculation uses the idle
// cores. Speculation is result-transparent, so this choice changes
// throughput only, never results.
func solveOne(ctx context.Context, t Task, saturated bool) Outcome {
	opt := t.Options
	if opt.Speculate == 0 && saturated {
		opt.Speculate = 1
	}
	var res *core.Result
	var err error
	if t.Delta != nil {
		res, err = core.ResolveContext(ctx, t.Prior, *t.Delta, opt)
	} else {
		res, err = core.SolveContext(ctx, t.Instance, opt)
	}
	if err != nil {
		return Outcome{Err: err}
	}
	return Outcome{Result: res}
}
