package round

import (
	"context"
	"math"

	"repro/internal/sched"
)

// This file implements the guess-grid binary search the solver core
// drives for cold, speculative and warm solves. Makespan guesses are
// quantized onto an absolute geometric grid
//
//	g(k) = ratio^k,  ratio = GridRatio(eps) = 1 + eps/4
//
// anchored at 1 and independent of the instance's [lb, ub] interval.
// The quantization buys two properties a search that bisects the float
// interval itself cannot offer:
//
//   - Canonical guesses. Every solve of every instance evaluates the
//     same guess values, so cross-solve memo entries (internal/memo)
//     can be reused by an incremental re-solve: a delta that leaves a
//     guess's scaled-rounded signature unchanged turns that guess into
//     a pure cache hit instead of a near-miss at a shifted midpoint.
//
//   - Order-independent results. The search returns the schedule of
//     the smallest accepted grid index (the acceptance boundary), not
//     the best-by-makespan over whichever guesses a particular probing
//     strategy happened to consume. Under the pipeline's monotone
//     acceptance this boundary is a property of the instance alone, so
//     a warm-started search (SearchWarm) that consumes a different —
//     and much shorter — guess sequence converges to the bit-identical
//     schedule the cold bisection finds.
//
// The grid step mirrors the retired additive step eps*lb/4 at g ~ lb:
// the accepted guess overshoots the acceptance boundary by at most a
// factor 1+eps/4, which is the same slack the additive step granted at
// the lower bound, keeping the Theorem 1 constant intact.

// GridRatio returns the guess-grid ratio for accuracy parameter eps.
func GridRatio(eps float64) float64 { return 1 + eps/4 }

// GridValue returns the guess value of grid index k: ratio^k.
func GridValue(k int, ratio float64) float64 {
	return math.Pow(ratio, float64(k))
}

// GridIndex returns the smallest k with ratio^k >= x (x and ratio-1
// must be positive). Like Exponent it nudges before the ceil so a
// representable power maps to its own index.
func GridIndex(x, ratio float64) int {
	k := int(math.Ceil(math.Log(x)/math.Log(ratio) - 1e-9))
	if GridValue(k, ratio) < x { // floating point slack
		k++
	}
	return k
}

// gridBounds quantizes a search interval: klo is the virtual-rejected
// floor (the largest index whose value is at or below lb — the search
// evaluates guesses in the open interval (lb, ub], strictly above the
// lower bound) and khi the first index at or above ub, the top both
// searches accept virtually. ub > lb > 0 implies khi >= klo+1, so the
// interval always holds khi.
func gridBounds(lb, ub, ratio float64) (klo, khi int) {
	klo = GridIndex(lb, ratio)
	if GridValue(klo, ratio) > lb {
		klo-- // lb between grid points: its index is the first above it
	}
	return klo, GridIndex(ub, ratio)
}

// inflight is one guess evaluation. Speculative evaluations run in their
// own goroutine under a child context; sequential evaluations run inline
// on the search goroutine (done is closed before launch returns). val and
// ok are written exactly once, before done is closed. Calling cancel
// tells a speculative evaluation its result will never be consumed, so it
// may abort early.
type inflight[T any] struct {
	guess  float64
	done   chan struct{}
	cancel context.CancelFunc
	val    T
	ok     bool
}

// launch starts the evaluation of one guess. With speculate=false the
// evaluation runs synchronously under the search's own context — this is
// the degenerate sequential case, sharing every other line of the driver
// with the speculative search so the two cannot drift.
func launch[T any](ctx context.Context, guess float64,
	eval func(ctx context.Context, guess float64) (T, bool), speculate bool) *inflight[T] {
	f := &inflight[T]{guess: guess, done: make(chan struct{})}
	if !speculate {
		f.val, f.ok = eval(ctx, guess)
		close(f.done)
		return f
	}
	child, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	go func() {
		f.val, f.ok = eval(child, guess)
		close(f.done)
	}()
	return f
}

// abandon cancels an evaluation whose result will not be consumed. Nil
// receivers are allowed (no speculation was launched for that branch);
// sequential inflights have no cancel and nothing to abandon.
func (f *inflight[T]) abandon() {
	if f != nil && f.cancel != nil {
		f.cancel()
	}
}

// drain blocks until every abandoned evaluation has actually returned,
// so no eval goroutine — which reads the caller's instance — outlives
// the search.
func drain[T any](abandoned []*inflight[T]) {
	for _, f := range abandoned {
		<-f.done
	}
}

// SearchGridSeq runs the grid-quantized dual-approximation binary
// search, evaluating one guess at a time on the calling goroutine. It
// is the same driver as SearchGridSpec with speculation disabled, so
// the two consume identical guess sequences by construction.
//
// The context is passed to every eval; when it is canceled or expires
// the search stops before the next guess and returns the result so far
// (callers detect the abort via ctx.Err()).
func SearchGridSeq[T any](ctx context.Context, lb, ub, ratio float64, maxGuesses int,
	eval func(ctx context.Context, guess float64) (T, bool),
	commit func(guess float64, v T, ok bool) *sched.Schedule,
) SearchResult {
	return searchGrid(ctx, lb, ub, ratio, maxGuesses, eval, commit, false)
}

// SearchGridSpec is SearchGridSeq with speculative parallel guess
// evaluation: each round launches the current midpoint and both
// possible successor midpoints concurrently (up to three live
// evaluations) and abandons the branch not taken. The top of the grid
// is never speculated: it runs only after the bisection, when no
// midpoint was accepted.
//
// eval must be safe for concurrent use and pure (independent of
// evaluation order). A speculative eval receives a child context of ctx
// that is canceled when the search abandons it; its result is then
// discarded. commit runs exactly once per consumed guess, in sequential
// order, and abandoned evaluations are never committed, so the consumed
// sequence and the returned result are bit-identical to SearchGridSeq.
// SearchGridSpec waits for every abandoned evaluation to return before
// it returns, so no eval goroutine outlives the call.
func SearchGridSpec[T any](ctx context.Context, lb, ub, ratio float64, maxGuesses int,
	eval func(ctx context.Context, guess float64) (T, bool),
	commit func(guess float64, v T, ok bool) *sched.Schedule,
) SearchResult {
	return searchGrid(ctx, lb, ub, ratio, maxGuesses, eval, commit, true)
}

// gridDriver carries the state shared by the cold and warm grid
// searches: the result under construction, the smallest accepted index
// seen, and the abandoned-evaluation ledger.
type gridDriver[T any] struct {
	ctx       context.Context
	ratio     float64
	max       int
	eval      func(ctx context.Context, guess float64) (T, bool)
	commit    func(guess float64, v T, ok bool) *sched.Schedule
	res       SearchResult
	bestK     int
	abandoned []*inflight[T]
}

func newGridDriver[T any](ctx context.Context, ratio float64, maxGuesses int,
	eval func(ctx context.Context, guess float64) (T, bool),
	commit func(guess float64, v T, ok bool) *sched.Schedule,
) *gridDriver[T] {
	if maxGuesses <= 0 {
		maxGuesses = 40
	}
	return &gridDriver[T]{
		ctx:    ctx,
		ratio:  ratio,
		max:    maxGuesses,
		eval:   eval,
		commit: commit,
		res:    newSearchResult(),
		bestK:  math.MaxInt,
	}
}

// discard abandons an evaluation whose result will not be consumed.
func (d *gridDriver[T]) discard(f *inflight[T]) {
	if f != nil {
		f.abandon()
		d.abandoned = append(d.abandoned, f)
	}
}

// consume commits the evaluation of grid index k and reports whether
// the guess was accepted. The winner is the smallest accepted index,
// not the best observed makespan: acceptance is a function of the
// guess's rounding class, so the smallest accepted index is the same
// boundary no matter which guess sequence discovered it — that is what
// makes warm and cold searches return bit-identical schedules.
func (d *gridDriver[T]) consume(f *inflight[T], k int) bool {
	<-f.done
	if f.cancel != nil {
		// Release the child context of a completed evaluation.
		f.cancel()
	}
	s := d.commit(f.guess, f.val, f.ok)
	d.res.Guesses++
	if f.ok && s != nil {
		if k < d.bestK {
			d.bestK = k
			d.res.Schedule, d.res.Makespan, d.res.FinalGuess = s, s.Makespan(), f.guess
		}
		return true
	}
	return false
}

// evalK launches and immediately consumes grid index k (the sequential
// path).
func (d *gridDriver[T]) evalK(k int) bool {
	f := launch(d.ctx, GridValue(k, d.ratio), d.eval, false)
	return d.consume(f, k)
}

// spent reports that the search must evaluate no further guess below
// the top of the grid: every guess of the budget but the one reserved
// for the top is spent, or the context is dead.
func (d *gridDriver[T]) spent() bool {
	return d.res.Guesses >= d.max-1 || d.ctx.Err() != nil
}

// settleTop evaluates the top index khi, which both searches treat as
// accepted virtually, when its outcome is needed: nothing below it was
// accepted and the context is alive. Any accepted index below khi is
// smaller, so consume would throw khi's schedule away.
func (d *gridDriver[T]) settleTop(khi int) {
	if d.bestK == math.MaxInt && d.ctx.Err() == nil {
		d.evalK(khi)
	}
}

// searchGrid is the cold driver: integer bisection over (klo, khi]
// maintaining the invariant that lo is rejected (klo virtually — the
// lower bound proves it) and hi accepted (khi virtually), terminating
// at hi-lo == 1. The bisection never reads khi's outcome and any
// accepted midpoint beats khi's schedule, so settleTop evaluates khi
// last, only when no midpoint was accepted; the budget keeps one guess
// back for it.
func searchGrid[T any](ctx context.Context, lb, ub, ratio float64, maxGuesses int,
	eval func(ctx context.Context, guess float64) (T, bool),
	commit func(guess float64, v T, ok bool) *sched.Schedule,
	speculate bool,
) SearchResult {
	d := newGridDriver(ctx, ratio, maxGuesses, eval, commit)
	defer func() { drain(d.abandoned) }()
	lo, hi := gridBounds(lb, ub, ratio)

	var next *inflight[T]
	nextK := 0
	for hi-lo > 1 && !d.spent() {
		mid := lo + (hi-lo)/2
		cur := next
		next = nil
		if cur == nil || nextK != mid {
			d.discard(cur)
			cur = launch(ctx, GridValue(mid, ratio), eval, speculate)
		}
		// Launch both possible successors while cur evaluates — unless
		// cur already finished, in which case the next iteration starts
		// the right midpoint directly. The guards mirror the loop
		// conditions at the next iteration, so a successor is only
		// skipped when the loop could not consume it anyway.
		var onAccept, onReject *inflight[T]
		var onAcceptK, onRejectK int
		curDone := false
		select {
		case <-cur.done:
			curDone = true
		default:
		}
		if !curDone && d.res.Guesses+1 < d.max-1 {
			if mid-lo > 1 {
				onAcceptK = lo + (mid-lo)/2
				onAccept = launch(ctx, GridValue(onAcceptK, ratio), eval, true)
			}
			if hi-mid > 1 {
				onRejectK = mid + (hi-mid)/2
				onReject = launch(ctx, GridValue(onRejectK, ratio), eval, true)
			}
		}
		if d.consume(cur, mid) {
			hi = mid
			next, nextK = onAccept, onAcceptK
			d.discard(onReject)
		} else {
			lo = mid
			next, nextK = onReject, onRejectK
			d.discard(onAccept)
		}
	}
	// A successor speculated for an iteration that never ran.
	d.discard(next)
	d.settleTop(hi) // hi is still khi unless a midpoint was accepted
	return d.res
}

// SearchWarm runs the warm-started grid search of an incremental
// re-solve: instead of bisecting the full (lb, ub] interval it seeds
// the search at the grid index of a prior solve's makespan and probes
// outward geometrically (stride doubling) until the acceptance
// boundary is bracketed, then bisects the bracket. Under monotone
// guess acceptance it converges to the same smallest accepted grid
// index as the cold search over the same interval — and therefore to
// the bit-identical schedule — while consuming a guess sequence whose
// length scales with the distance between the seed and the boundary,
// not with the width of (lb, ub]. A seed at or below lb is clamped
// onto the interval.
//
// The top of the interval is accepted virtually, as in the cold
// search: a seed at or above it starts the bisection of the whole
// interval directly, the upward probe stops below it, and it is
// evaluated last, only when nothing below it was accepted, with one
// guess of the budget kept back for it.
//
// Evaluation is strictly sequential: each probe depends on the
// previous outcome, so there is no speculation tree to race down.
func SearchWarm[T any](ctx context.Context, lb, ub, seed, ratio float64, maxGuesses int,
	eval func(ctx context.Context, guess float64) (T, bool),
	commit func(guess float64, v T, ok bool) *sched.Schedule,
) SearchResult {
	d := newGridDriver(ctx, ratio, maxGuesses, eval, commit)
	lo, hi := gridBounds(lb, ub, ratio)
	ks := GridIndex(seed, ratio)
	if ks <= lo {
		ks = lo + 1
	}

	// Bracket the boundary: rej is the largest known-rejected index
	// (lo counts, virtually), acc the smallest known-accepted one (hi
	// counts, virtually).
	rej, acc := lo, hi
	switch {
	case ks >= hi || d.spent():
		// A seed at or above the top, or only the top's guess left:
		// nothing to bracket.
	case d.evalK(ks):
		acc = ks
		// Probe downward with doubling stride from the seed.
		for stride := 1; acc-rej > 1 && !d.spent(); stride *= 2 {
			p := ks - stride
			if p <= rej {
				break // bisection finishes the remaining gap
			}
			if d.evalK(p) {
				acc = p
			} else {
				rej = p
				break
			}
		}
	default:
		rej = ks
		// Probe upward with doubling stride until something accepts or
		// the stride reaches the top; the bisection finishes the gap
		// below it.
		for stride := 1; !d.spent(); stride *= 2 {
			p := ks + stride
			if p >= hi {
				break
			}
			if d.evalK(p) {
				acc = p
				break
			}
			rej = p
		}
	}

	// Bisect the bracket down to a gap of one.
	for acc-rej > 1 && !d.spent() {
		mid := rej + (acc-rej)/2
		if d.evalK(mid) {
			acc = mid
		} else {
			rej = mid
		}
	}
	d.settleTop(hi)
	return d.res
}
