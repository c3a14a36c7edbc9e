package round

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// guessSchedule builds a fresh one-job schedule whose makespan equals ms,
// letting tests control the makespan the search observes per guess.
func guessSchedule(ms float64) *sched.Schedule {
	in := sched.NewInstance(1)
	in.AddJob(ms, 0)
	return &sched.Schedule{Inst: in, Machine: []int{0}}
}

func checkIdentical(t *testing.T, seq, spec SearchResult, seqOrder, specOrder []float64) {
	t.Helper()
	if seq.Guesses != spec.Guesses {
		t.Errorf("guess counts differ: seq=%d spec=%d", seq.Guesses, spec.Guesses)
	}
	if seq.FinalGuess != spec.FinalGuess {
		t.Errorf("final guesses differ: seq=%v spec=%v", seq.FinalGuess, spec.FinalGuess)
	}
	if (seq.Schedule == nil) != (spec.Schedule == nil) {
		t.Fatalf("schedule presence differs: seq=%v spec=%v", seq.Schedule != nil, spec.Schedule != nil)
	}
	if seq.Schedule != nil && seq.Makespan != spec.Makespan {
		t.Errorf("makespans differ: seq=%v spec=%v", seq.Makespan, spec.Makespan)
	}
	if len(seqOrder) != len(specOrder) {
		t.Fatalf("commit orders differ in length: seq=%v spec=%v", seqOrder, specOrder)
	}
	for i := range seqOrder {
		if seqOrder[i] != specOrder[i] {
			t.Fatalf("commit order diverges at %d: seq=%v spec=%v", i, seqOrder, specOrder)
		}
	}
}

func TestGridIndexBasics(t *testing.T) {
	for _, tc := range []struct {
		x, ratio float64
	}{
		{1, 1.125}, {0.3, 1.125}, {7.3, 1.125}, {1e-4, 1.0625}, {1e4, 1.25}, {2.5, 1.1},
	} {
		k := GridIndex(tc.x, tc.ratio)
		v := GridValue(k, tc.ratio)
		if v < tc.x-1e-12 {
			t.Errorf("GridValue(GridIndex(%g,%g)) = %g below input", tc.x, tc.ratio, v)
		}
		if below := GridValue(k-1, tc.ratio); below >= tc.x*(1+1e-9) {
			t.Errorf("GridIndex(%g,%g) = %d not minimal: value(k-1) = %g", tc.x, tc.ratio, k, below)
		}
	}
}

func TestGridIndexExactPower(t *testing.T) {
	// An exact grid value must map to its own index.
	ratio := 1.125
	for k := -20; k <= 20; k++ {
		v := GridValue(k, ratio)
		if got := GridIndex(v, ratio); got != k {
			t.Errorf("GridIndex(GridValue(%d)) = %d", k, got)
		}
	}
}

// gridPair runs the sequential and speculative cold grid searches over
// the same accept predicate and records each one's committed guess
// order.
func gridPair(t *testing.T, lb, ub, ratio float64, maxGuesses int, accept func(float64) bool) (seq, spec SearchResult, seqOrder, specOrder []float64) {
	t.Helper()
	eval := func(_ context.Context, g float64) (float64, bool) { return g, accept(g) }
	seqCommit := func(g float64, v float64, ok bool) *sched.Schedule {
		seqOrder = append(seqOrder, g)
		if !ok {
			return nil
		}
		return guessSchedule(v)
	}
	seq = SearchGridSeq(context.Background(), lb, ub, ratio, maxGuesses, eval, seqCommit)

	var mu sync.Mutex
	specCommit := func(g float64, v float64, ok bool) *sched.Schedule {
		mu.Lock()
		specOrder = append(specOrder, g)
		mu.Unlock()
		if !ok {
			return nil
		}
		return guessSchedule(v)
	}
	spec = SearchGridSpec(context.Background(), lb, ub, ratio, maxGuesses, eval, specCommit)
	return seq, spec, seqOrder, specOrder
}

// TestSearchGridSpecMatchesSequential checks that the speculative grid
// search consumes the exact guess sequence of the sequential one —
// same guesses, same order, same result — across accept-heavy,
// reject-heavy and mixed paths.
func TestSearchGridSpecMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name      string
		lb, ub    float64
		ratio     float64
		maxG      int
		threshold float64
	}{
		{"accept-all", 1, 4, 1.125, 40, 0},
		{"reject-below-mid", 1, 4, 1.125, 40, 2},
		{"accept-high-only", 1, 4, 1.125, 40, 3.9},
		{"tight-threshold", 1, 4, 1.0625, 40, 1.2345},
		{"few-guesses", 1, 4, 1.125, 3, 1.3},
		{"two-guesses", 1, 4, 1.125, 2, 1.3},
		{"one-guess", 1, 4, 1.125, 1, 1.3},
		{"coarse-grid", 1, 4, 1.25, 40, 1.4},
		{"narrow-interval", 1.5, 1.6, 1.125, 40, 1.55},
		{"default-params", 1, 8, 1.1, 0, 3.21},
		{"sub-one-interval", 0.01, 0.5, 1.125, 40, 0.07},
	} {
		t.Run(tc.name, func(t *testing.T) {
			accept := func(g float64) bool { return g >= tc.threshold }
			seq, spec, so, po := gridPair(t, tc.lb, tc.ub, tc.ratio, tc.maxG, accept)
			checkIdentical(t, seq, spec, so, po)
		})
	}
}

// TestSearchSpecMatchesSequential runs the same check on fine grids:
// with ratio 1+1e-6 the bisection over [1, 2] is about 20 levels deep,
// so the speculation tree is deep and the guess budget, when small,
// cuts it off mid-descent.
func TestSearchSpecMatchesSequential(t *testing.T) {
	fine := 1 + 1e-6
	for _, tc := range []struct {
		name      string
		lb, ub    float64
		ratio     float64
		maxG      int
		threshold float64
	}{
		{"accept-all", 1, 2, fine, 40, 0},
		{"reject-below-mid", 1, 2, fine, 40, 1.5},
		{"accept-high-only", 1, 2, fine, 40, 1.97},
		{"tight-threshold", 1, 2, fine, 40, 1.2345},
		{"few-guesses", 1, 2, fine, 3, 1.3},
		{"two-guesses", 1, 2, fine, 2, 1.3},
		{"one-guess", 1, 2, fine, 1, 1.3},
		{"wide-step", 1, 2, 1.3, 40, 1.4},
		{"degenerate-interval", 1.5, 1.5, fine, 40, 1.0},
		{"default-params", 1, 8, fine, 0, 3.21},
	} {
		t.Run(tc.name, func(t *testing.T) {
			accept := func(g float64) bool { return g >= tc.threshold }
			seq, spec, so, po := gridPair(t, tc.lb, tc.ub, tc.ratio, tc.maxG, accept)
			checkIdentical(t, seq, spec, so, po)
		})
	}
}

// TestSearchAllReject checks the no-accepted-guess path of the cold
// sequential search: a nil schedule and a +Inf makespan.
func TestSearchAllReject(t *testing.T) {
	eval := func(_ context.Context, g float64) (float64, bool) { return g, false }
	commit := func(g float64, v float64, ok bool) *sched.Schedule { return nil }
	res := SearchGridSeq(context.Background(), 1, 4, 1.125, 10, eval, commit)
	if res.Schedule != nil || !math.IsInf(res.Makespan, 1) {
		t.Errorf("reject-all produced a schedule: %+v", res)
	}
}

// TestSearchSpecRejectAll checks the no-accepted-guess path of the
// speculative search: it consumes the sequential search's guesses and
// reports a nil schedule and a +Inf makespan, here with the budget
// running out before the fine grid's bisection ends.
func TestSearchSpecRejectAll(t *testing.T) {
	seq, spec, so, po := gridPair(t, 1, 2, 1+1e-6, 10, func(float64) bool { return false })
	checkIdentical(t, seq, spec, so, po)
	if spec.Schedule != nil || !math.IsInf(spec.Makespan, 1) {
		t.Errorf("reject-all produced a schedule: %+v", spec)
	}
}

// TestSearchFindsThreshold: for a monotone threshold inside (lb, ub] the
// cold search's FinalGuess is the smallest grid value at or above the
// threshold, and the search keeps that guess's schedule even though
// every larger accepted guess produced a shorter one.
func TestSearchFindsThreshold(t *testing.T) {
	ratio := 1.125
	threshold := 7.3
	calls := 0
	eval := func(_ context.Context, g float64) (float64, bool) {
		calls++
		return g, g >= threshold
	}
	commit := func(_ float64, v float64, ok bool) *sched.Schedule {
		if !ok {
			return nil
		}
		return guessSchedule(1 / v)
	}
	res := SearchGridSeq(context.Background(), 1, 20, ratio, 0, eval, commit)
	want := GridValue(GridIndex(threshold, ratio), ratio)
	if res.FinalGuess != want {
		t.Errorf("final guess = %v, want %v", res.FinalGuess, want)
	}
	if res.Schedule == nil || res.Makespan != 1/want {
		t.Errorf("kept makespan %v, want the smallest accepted guess's %v", res.Makespan, 1/want)
	}
	if calls != res.Guesses {
		t.Errorf("guesses = %d, calls = %d", res.Guesses, calls)
	}
}

// TestSearchKeepsBestSchedule: when every guess is accepted and a
// smaller guess yields a shorter schedule, the smallest accepted index
// is also the shortest schedule committed, so the cold search,
// sequential and speculative, returns the best schedule it saw.
func TestSearchKeepsBestSchedule(t *testing.T) {
	for _, search := range []func(context.Context, float64, float64, float64, int,
		func(context.Context, float64) (float64, bool),
		func(float64, float64, bool) *sched.Schedule) SearchResult{
		SearchGridSeq[float64], SearchGridSpec[float64],
	} {
		best := math.Inf(1)
		eval := func(_ context.Context, g float64) (float64, bool) { return g, true }
		commit := func(_ float64, v float64, ok bool) *sched.Schedule {
			best = math.Min(best, v)
			return guessSchedule(v)
		}
		res := search(context.Background(), 2, 10, 1.01, 100, eval, commit)
		if res.Schedule == nil || res.Makespan != best {
			t.Errorf("kept makespan %g, best seen %g", res.Makespan, best)
		}
	}
}

// TestSearchConvergesWithinSteps: over random thresholds the cold search,
// sequential and speculative, lands on the smallest grid value at or
// above the threshold within ceil(log2(khi-klo)) bisections plus the
// top of the grid.
func TestSearchConvergesWithinSteps(t *testing.T) {
	ratio := 1.0625
	lb, ub := 1.0, 17.0
	klo, khi := gridBounds(lb, ub, ratio)
	maxSteps := 1 + int(math.Ceil(math.Log2(float64(khi-klo))))
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		threshold := 1.01 + rng.Float64()*15
		seq, spec, so, po := gridPair(t, lb, ub, ratio, 0, func(g float64) bool { return g >= threshold })
		checkIdentical(t, seq, spec, so, po)
		if want := GridValue(GridIndex(threshold, ratio), ratio); seq.FinalGuess != want {
			t.Errorf("trial %d: final %v, want %v (threshold %g)", trial, seq.FinalGuess, want, threshold)
		}
		if seq.Guesses > maxSteps {
			t.Errorf("trial %d: %d guesses, want <= %d", trial, seq.Guesses, maxSteps)
		}
	}
}

// TestSearchSpecCommitSeesValue checks that commit receives the value the
// concurrent eval produced for that exact guess.
func TestSearchSpecCommitSeesValue(t *testing.T) {
	eval := func(_ context.Context, g float64) (float64, bool) { return 3 * g, true }
	commit := func(g float64, v float64, ok bool) *sched.Schedule {
		if v != 3*g {
			t.Errorf("commit for guess %v got value %v, want %v", g, v, 3*g)
		}
		if !ok {
			return nil
		}
		return guessSchedule(g)
	}
	res := SearchGridSpec(context.Background(), 1, 2, 1.01, 20, eval, commit)
	if res.Schedule == nil {
		t.Fatal("no schedule from accept-all search")
	}
}

// TestSearchSeqContextStopsEarly checks that canceling the context stops
// the sequential driver before the next guess: the search returns what it
// has instead of running out its guess budget.
func TestSearchSeqContextStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	evals := 0
	eval := func(_ context.Context, g float64) (float64, bool) {
		evals++
		if evals == 2 {
			cancel()
		}
		return g, true
	}
	commit := func(_ float64, v float64, ok bool) *sched.Schedule {
		if !ok {
			return nil
		}
		return guessSchedule(v)
	}
	res := SearchGridSeq(ctx, 1, 2, 1.01, 40, eval, commit)
	if res.Guesses != 2 {
		t.Errorf("canceled search consumed %d guesses, want 2 (the first two midpoints)", res.Guesses)
	}
	if res.Schedule == nil {
		t.Error("canceled search dropped the best-so-far schedule")
	}
}

// TestSearchSpecDrainsAbandoned checks that no eval goroutine outlives
// SearchGridSpec: abandoned evaluations are cancelled and awaited before
// the search returns, even when they are slow to notice the cancellation.
func TestSearchSpecDrainsAbandoned(t *testing.T) {
	var active atomic.Int32
	eval := func(ctx context.Context, g float64) (float64, bool) {
		active.Add(1)
		defer active.Add(-1)
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Millisecond):
		}
		return g, g >= 1.5
	}
	commit := func(g float64, v float64, ok bool) *sched.Schedule {
		if !ok {
			return nil
		}
		return guessSchedule(v)
	}
	res := SearchGridSpec(context.Background(), 1, 2, 1.01, 20, eval, commit)
	if res.Schedule == nil {
		t.Fatal("no schedule")
	}
	if n := active.Load(); n != 0 {
		t.Errorf("%d eval goroutines still running after SearchGridSpec returned", n)
	}
}

// TestSearchSpecAbandonsLosers checks that every speculative evaluation
// is either committed or canceled — no evaluation is silently left
// running after the search returns.
func TestSearchSpecAbandonsLosers(t *testing.T) {
	var mu sync.Mutex
	committed := map[float64]bool{}
	cancels := map[float64]<-chan struct{}{}
	eval := func(ctx context.Context, g float64) (float64, bool) {
		mu.Lock()
		cancels[g] = ctx.Done()
		mu.Unlock()
		return g, g >= 1.3
	}
	commit := func(g float64, v float64, ok bool) *sched.Schedule {
		mu.Lock()
		committed[g] = true
		mu.Unlock()
		if !ok {
			return nil
		}
		return guessSchedule(v)
	}
	res := SearchGridSpec(context.Background(), 1, 2, 1.01, 40, eval, commit)
	if res.Schedule == nil {
		t.Fatal("no schedule")
	}
	mu.Lock()
	defer mu.Unlock()
	for g, cancel := range cancels {
		if committed[g] {
			continue
		}
		select {
		case <-cancel:
		default:
			t.Errorf("speculative eval of guess %v was neither committed nor canceled", g)
		}
	}
}

// TestSearchWarmMatchesCold checks the load-bearing property of the
// incremental re-solve: for a monotone accept predicate the warm
// search converges to the same smallest accepted grid index — hence
// the same FinalGuess and makespan — as the cold bisection, from any
// seed.
func TestSearchWarmMatchesCold(t *testing.T) {
	ratio := 1.125
	lb, ub := 1.0, 20.0
	for _, threshold := range []float64{0, 1.01, 2.5, 7.3, 12.0, 19.9, 25.0} {
		accept := func(g float64) bool { return g >= threshold }
		eval := func(_ context.Context, g float64) (float64, bool) { return g, accept(g) }
		commit := func(g float64, v float64, ok bool) *sched.Schedule {
			if !ok {
				return nil
			}
			return guessSchedule(v)
		}
		cold := SearchGridSeq(context.Background(), lb, ub, ratio, 0, eval, commit)
		for _, seed := range []float64{0.5, 1.0, 2.0, 7.3, 12.0, 19.0, 40.0} {
			warm := SearchWarm(context.Background(), lb, ub, seed, ratio, 0, eval, commit)
			if (cold.Schedule == nil) != (warm.Schedule == nil) {
				t.Fatalf("threshold=%g seed=%g: schedule presence differs (cold=%v warm=%v)",
					threshold, seed, cold.Schedule != nil, warm.Schedule != nil)
			}
			if cold.Schedule == nil {
				continue
			}
			if cold.FinalGuess != warm.FinalGuess {
				t.Errorf("threshold=%g seed=%g: final guess differs: cold=%v warm=%v",
					threshold, seed, cold.FinalGuess, warm.FinalGuess)
			}
			if cold.Makespan != warm.Makespan {
				t.Errorf("threshold=%g seed=%g: makespan differs: cold=%v warm=%v",
					threshold, seed, cold.Makespan, warm.Makespan)
			}
		}
	}
}

// TestSearchWarmFewerGuessesNearSeed checks the warm search's point: a
// seed at the boundary consumes fewer decisions than the cold
// bisection over a wide interval.
func TestSearchWarmFewerGuessesNearSeed(t *testing.T) {
	ratio := 1.0625
	lb, ub := 1.0, 100.0
	threshold := 7.3
	eval := func(_ context.Context, g float64) (float64, bool) { return g, g >= threshold }
	commit := func(g float64, v float64, ok bool) *sched.Schedule {
		if !ok {
			return nil
		}
		return guessSchedule(v)
	}
	cold := SearchGridSeq(context.Background(), lb, ub, ratio, 0, eval, commit)
	warm := SearchWarm(context.Background(), lb, ub, cold.FinalGuess, ratio, 0, eval, commit)
	if warm.Guesses >= cold.Guesses {
		t.Errorf("warm search consumed %d guesses, cold %d — warm start bought nothing",
			warm.Guesses, cold.Guesses)
	}
	if warm.FinalGuess != cold.FinalGuess {
		t.Errorf("warm final guess %v != cold %v", warm.FinalGuess, cold.FinalGuess)
	}
}

// TestSearchWarmRejectAll checks the no-accepted-guess path: the warm
// search walks up to the top of the interval, sees it reject last, and
// reports no schedule — the caller then falls back exactly as after a
// cold all-reject search.
func TestSearchWarmRejectAll(t *testing.T) {
	eval := func(_ context.Context, g float64) (float64, bool) { return g, false }
	commit := func(g float64, v float64, ok bool) *sched.Schedule { return nil }
	res := SearchWarm(context.Background(), 1, 4, 2, 1.125, 0, eval, commit)
	if res.Schedule != nil || !math.IsInf(res.Makespan, 1) {
		t.Errorf("reject-all warm search produced a schedule: %+v", res)
	}
}

// TestSearchGridRespectsMaxGuesses bounds both drivers.
func TestSearchGridRespectsMaxGuesses(t *testing.T) {
	evals := 0
	eval := func(_ context.Context, g float64) (float64, bool) { evals++; return g, false }
	commit := func(g float64, v float64, ok bool) *sched.Schedule { return nil }
	SearchGridSeq(context.Background(), 1, 1e9, 1.0001, 5, eval, commit)
	if evals > 5 {
		t.Errorf("cold grid search evaluated %d guesses, want <= 5", evals)
	}
	evals = 0
	SearchWarm(context.Background(), 1, 1e9, 17, 1.0001, 5, eval, commit)
	if evals > 5 {
		t.Errorf("warm grid search evaluated %d guesses, want <= 5", evals)
	}
}

// TestSearchRespectsMaxGuesses bounds the speculative cold driver:
// however many successors it launches, it commits at most maxGuesses
// guesses.
func TestSearchRespectsMaxGuesses(t *testing.T) {
	commits := 0
	eval := func(_ context.Context, g float64) (float64, bool) { return g, false }
	commit := func(g float64, v float64, ok bool) *sched.Schedule { commits++; return nil }
	res := SearchGridSpec(context.Background(), 1, 1e9, 1.0001, 5, eval, commit)
	if commits > 5 || res.Guesses != commits {
		t.Errorf("speculative grid search committed %d guesses and reported %d, want the same count <= 5", commits, res.Guesses)
	}
}

// TestSearchWarmContextStopsEarly checks that cancellation stops the
// warm driver between probes.
func TestSearchWarmContextStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	evals := 0
	eval := func(_ context.Context, g float64) (float64, bool) {
		evals++
		if evals == 2 {
			cancel()
		}
		return g, true
	}
	commit := func(g float64, v float64, ok bool) *sched.Schedule {
		if !ok {
			return nil
		}
		return guessSchedule(v)
	}
	res := SearchWarm(ctx, 1, 100, 50, 1.125, 0, eval, commit)
	if res.Guesses > 3 {
		t.Errorf("canceled warm search consumed %d guesses, want <= 3", res.Guesses)
	}
	if res.Schedule == nil {
		t.Error("canceled warm search dropped the best-so-far schedule")
	}
}

// TestSearchWarmSeedOutsideInterval clamps seeds onto the interval.
func TestSearchWarmSeedOutsideInterval(t *testing.T) {
	ratio := 1.125
	threshold := 2.0
	eval := func(_ context.Context, g float64) (float64, bool) { return g, g >= threshold }
	commit := func(g float64, v float64, ok bool) *sched.Schedule {
		if !ok {
			return nil
		}
		return guessSchedule(v)
	}
	cold := SearchGridSeq(context.Background(), 1, 4, ratio, 0, eval, commit)
	for _, seed := range []float64{1e-6, 1e6} {
		warm := SearchWarm(context.Background(), 1, 4, seed, ratio, 0, eval, commit)
		if warm.Schedule == nil || warm.FinalGuess != cold.FinalGuess {
			t.Errorf("seed=%g: warm final %v, cold final %v", seed, warm.FinalGuess, cold.FinalGuess)
		}
	}
}

// refSearchGrid is the cold driver as it stood before the top of the
// grid moved last, kept as the reference: it probes khi first, then
// bisects (klo, khi] until hi-lo == 1 or the budget is spent. The
// speculative driver consumes what the sequential one does, so this
// sequential form is the reference for both.
func refSearchGrid[T any](ctx context.Context, lb, ub, ratio float64, maxGuesses int,
	eval func(ctx context.Context, guess float64) (T, bool),
	commit func(guess float64, v T, ok bool) *sched.Schedule,
) SearchResult {
	d := newGridDriver(ctx, ratio, maxGuesses, eval, commit)
	lo, hi := gridBounds(lb, ub, ratio)
	d.evalK(hi)
	for hi-lo > 1 && d.res.Guesses < d.max && ctx.Err() == nil {
		mid := lo + (hi-lo)/2
		if d.evalK(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return d.res
}

// vectorCase is a search over a synthetic acceptance vector: accept[i]
// decides grid index klo+1+i, so the vector covers (klo, khi]. Every
// index has one fixed schedule, so results compare by pointer.
type vectorCase struct {
	lb, ub, ratio float64
	klo, khi      int
	accept        []bool
	scheds        []*sched.Schedule
	index         map[float64]int
}

func newVectorCase(t testing.TB, klo int, accept []bool) *vectorCase {
	t.Helper()
	ratio := 1.125
	c := &vectorCase{
		lb:     GridValue(klo, ratio),
		ub:     GridValue(klo+len(accept), ratio),
		ratio:  ratio,
		accept: accept,
		index:  map[float64]int{},
	}
	c.klo, c.khi = gridBounds(c.lb, c.ub, ratio)
	if c.klo != klo || c.khi != klo+len(accept) {
		t.Fatalf("grid bounds (%d, %d], want (%d, %d]", c.klo, c.khi, klo, klo+len(accept))
	}
	for k := c.klo + 1; k <= c.khi; k++ {
		c.index[GridValue(k, ratio)] = k
		c.scheds = append(c.scheds, guessSchedule(float64(k-c.klo)))
	}
	return c
}

// vectorRun is one search over a vectorCase: its result, every index
// eval saw (speculative ones included) and the indexes commit consumed,
// in order.
type vectorRun struct {
	res       SearchResult
	evaluated map[int]bool
	committed []int
}

// belowAccepted reports whether the run consumed an accepted index
// below the top.
func (r vectorRun) belowAccepted(c *vectorCase) bool {
	for _, k := range r.committed {
		if k < c.khi && c.accept[k-c.klo-1] {
			return true
		}
	}
	return false
}

// run drives one search over c with an eval that records every index
// it sees.
func (c *vectorCase) run(t testing.TB, search func(eval func(context.Context, float64) (int, bool),
	commit func(float64, int, bool) *sched.Schedule) SearchResult) vectorRun {
	t.Helper()
	var mu sync.Mutex
	r := vectorRun{evaluated: map[int]bool{}}
	eval := func(_ context.Context, g float64) (int, bool) {
		k, ok := c.index[g]
		if !ok {
			t.Errorf("guess %v is not a grid value in (%d, %d]", g, c.klo, c.khi)
			return 0, false
		}
		mu.Lock()
		r.evaluated[k] = true
		mu.Unlock()
		return k, c.accept[k-c.klo-1]
	}
	commit := func(_ float64, k int, ok bool) *sched.Schedule {
		r.committed = append(r.committed, k)
		if !ok {
			return nil
		}
		return c.scheds[k-c.klo-1]
	}
	r.res = search(eval, commit)
	if r.res.Guesses != len(r.committed) {
		t.Errorf("%d guesses reported, %d committed", r.res.Guesses, len(r.committed))
	}
	return r
}

func (c *vectorCase) ref(t testing.TB, maxGuesses int) vectorRun {
	return c.run(t, func(eval func(context.Context, float64) (int, bool), commit func(float64, int, bool) *sched.Schedule) SearchResult {
		return refSearchGrid(context.Background(), c.lb, c.ub, c.ratio, maxGuesses, eval, commit)
	})
}

func (c *vectorCase) cold(t testing.TB, maxGuesses int, speculate bool) vectorRun {
	return c.run(t, func(eval func(context.Context, float64) (int, bool), commit func(float64, int, bool) *sched.Schedule) SearchResult {
		return searchGrid(context.Background(), c.lb, c.ub, c.ratio, maxGuesses, eval, commit, speculate)
	})
}

func (c *vectorCase) warm(t testing.TB, seed float64, maxGuesses int) vectorRun {
	return c.run(t, func(eval func(context.Context, float64) (int, bool), commit func(float64, int, bool) *sched.Schedule) SearchResult {
		return SearchWarm(context.Background(), c.lb, c.ub, seed, c.ratio, maxGuesses, eval, commit)
	})
}

// sameAnswer reports how two search results differ in what a caller
// reads (schedule, makespan, final guess), or "" when they agree.
func sameAnswer(got, want SearchResult) string {
	if got.Schedule != want.Schedule || got.FinalGuess != want.FinalGuess ||
		(got.Makespan != want.Makespan && !(math.IsInf(got.Makespan, 1) && math.IsInf(want.Makespan, 1))) {
		return fmt.Sprintf("got schedule %p makespan %v final %v, want %p %v %v",
			got.Schedule, got.Makespan, got.FinalGuess, want.Schedule, want.Makespan, want.FinalGuess)
	}
	return ""
}

// checkColdAgainstRef runs the cold driver and the reference over c
// and asserts the same answer, one guess fewer exactly when an index
// below the top was accepted, and the top evaluated if and only if
// nothing below it was accepted.
func checkColdAgainstRef(t testing.TB, c *vectorCase, maxGuesses int, speculate bool) {
	t.Helper()
	ref, got := c.ref(t, maxGuesses), c.cold(t, maxGuesses, speculate)
	label := fmt.Sprintf("accept %v, budget %d, speculate %v", c.accept, maxGuesses, speculate)
	if diff := sameAnswer(got.res, ref.res); diff != "" {
		t.Errorf("%s: %s", label, diff)
	}
	below := got.belowAccepted(c)
	if below != ref.belowAccepted(c) {
		t.Errorf("%s: accepted below the top %v, reference %v", label, below, !below)
	}
	want := ref.res.Guesses
	if below {
		want--
	}
	if got.res.Guesses != want {
		t.Errorf("%s: %d guesses, want %d (reference %d)", label, got.res.Guesses, want, ref.res.Guesses)
	}
	if got.evaluated[c.khi] == below {
		t.Errorf("%s: top evaluated %v, accepted below it %v", label, got.evaluated[c.khi], below)
	}
}

// checkWarm runs SearchWarm from seed over c and asserts the top is
// never evaluated once an index below it was accepted; with want set
// it also asserts the answer of want.
func checkWarm(t testing.TB, c *vectorCase, seed float64, maxGuesses int, want *SearchResult) {
	t.Helper()
	warm := c.warm(t, seed, maxGuesses)
	label := fmt.Sprintf("accept %v, seed %v (index %d), budget %d", c.accept, seed, GridIndex(seed, c.ratio), maxGuesses)
	if warm.belowAccepted(c) && warm.evaluated[c.khi] {
		t.Errorf("%s: top evaluated after an index below it was accepted", label)
	}
	if maxGuesses > 0 && warm.res.Guesses > maxGuesses {
		t.Errorf("%s: %d guesses over the budget", label, warm.res.Guesses)
	}
	if want != nil {
		if diff := sameAnswer(warm.res, *want); diff != "" {
			t.Errorf("%s: warm and cold differ: %s", label, diff)
		}
	}
}

// monotoneVector accepts index klo+1+i exactly when i >= threshold; a
// threshold of width accepts nothing.
func monotoneVector(width, threshold int) []bool {
	v := make([]bool, width)
	for i := threshold; i < width; i++ {
		v[i] = true
	}
	return v
}

// TestSearchGridTopLast checks the cold driver against the top-first
// reference over seeded random acceptance vectors, monotone and not,
// across interval widths, budgets and speculation.
func TestSearchGridTopLast(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for width := 1; width <= 12; width++ {
		for maxGuesses := 1; maxGuesses <= 8; maxGuesses++ {
			for trial := 0; trial < 6; trial++ {
				var accept []bool
				if trial%2 == 0 {
					accept = monotoneVector(width, rng.Intn(width+1))
				} else {
					accept = make([]bool, width)
					for i := range accept {
						accept[i] = rng.Intn(2) == 1
					}
				}
				c := newVectorCase(t, rng.Intn(17)-8, accept)
				for _, speculate := range []bool{false, true} {
					checkColdAgainstRef(t, c, maxGuesses, speculate)
				}
			}
		}
	}
}

// TestSearchWarmTopLast checks the warm driver under monotone
// acceptance, from seeds inside and outside the interval: it returns
// the cold driver's answer and never evaluates the top once an index
// below it was accepted.
func TestSearchWarmTopLast(t *testing.T) {
	for width := 1; width <= 12; width++ {
		for threshold := 0; threshold <= width; threshold++ {
			c := newVectorCase(t, -3, monotoneVector(width, threshold))
			cold := c.cold(t, 0, false).res
			for k := c.klo - 3; k <= c.khi+3; k++ {
				for _, seed := range []float64{GridValue(k, c.ratio), GridValue(k, c.ratio) * math.Sqrt(c.ratio)} {
					checkWarm(t, c, seed, 0, &cold)
				}
			}
		}
	}
}

// FuzzSearchGrid turns its bytes into an acceptance vector, interval
// bounds, a guess budget and a warm seed, then checks the cold driver
// against the top-first reference and the warm driver against the top
// rule (and, under monotone acceptance, against the cold answer).
//
// Layout: data[0] width, data[1] budget (0 is the default), data[2]
// warm seed index, data[3] flags (bit 0 speculate, bit 1 monotone,
// bits 2–7 the floor index), data[4:] the acceptance bits, or under
// monotone acceptance data[4] the threshold.
func FuzzSearchGrid(f *testing.F) {
	f.Add([]byte{4, 0, 2, 0, 0x0b})
	f.Add([]byte{12, 5, 9, 3, 0xff, 0x0f})
	f.Add([]byte{7, 3, 0, 2, 5})
	f.Add([]byte{1, 1, 1, 1, 0})
	f.Add([]byte{9, 8, 14, 0xfd, 0x24, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		width := 1 + at(0)%12
		maxGuesses := at(1) % 9
		flags := at(3)
		speculate, monotone := flags&1 != 0, flags&2 != 0
		klo := (flags>>2)%16 - 8
		var accept []bool
		if monotone {
			accept = monotoneVector(width, at(4)%(width+1))
		} else {
			accept = make([]bool, width)
			for i := range accept {
				accept[i] = at(4+i/8)>>(i%8)&1 == 1
			}
		}
		c := newVectorCase(t, klo, accept)
		checkColdAgainstRef(t, c, maxGuesses, speculate)

		seed := GridValue(c.klo-2+at(2)%(width+5), c.ratio)
		checkWarm(t, c, seed, maxGuesses, nil)
		if monotone {
			cold := c.cold(t, 0, false).res
			checkWarm(t, c, seed, 0, &cold)
		}
	})
}
