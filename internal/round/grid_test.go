package round

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// guessSchedule builds a fresh one-job schedule whose makespan equals ms,
// letting tests control the makespan the search observes per guess.
func guessSchedule(ms float64) *sched.Schedule {
	in := sched.NewInstance(1)
	in.AddJob(ms, 0)
	return &sched.Schedule{Inst: in, Machine: []int{0}}
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

// TestSearchAllReject checks the no-accepted-guess path of the cold
// search: a nil schedule and a +Inf makespan, both when the bisection
// ends and the top rejects last and when the budget runs out before a
// fine grid's bisection ends.
func TestSearchAllReject(t *testing.T) {
	eval := func(_ context.Context, g float64) (float64, bool) { return g, false }
	commit := func(g float64, v float64, ok bool) *sched.Schedule { return nil }
	for _, ratio := range []float64{1.125, 1 + 1e-6} {
		res := SearchGrid(context.Background(), 1, 4, ratio, 10, eval, commit)
		if res.Schedule != nil || !math.IsInf(res.Makespan, 1) {
			t.Errorf("ratio %v: reject-all produced a schedule: %+v", ratio, res)
		}
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
	res := SearchGrid(context.Background(), 1, 20, ratio, 0, eval, commit)
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
// is also the shortest schedule committed, so the cold search returns
// the best schedule it saw.
func TestSearchKeepsBestSchedule(t *testing.T) {
	best := math.Inf(1)
	eval := func(_ context.Context, g float64) (float64, bool) { return g, true }
	commit := func(_ float64, v float64, ok bool) *sched.Schedule {
		best = math.Min(best, v)
		return guessSchedule(v)
	}
	res := SearchGrid(context.Background(), 2, 10, 1.01, 100, eval, commit)
	if res.Schedule == nil || res.Makespan != best {
		t.Errorf("kept makespan %g, best seen %g", res.Makespan, best)
	}
}

// TestSearchConvergesWithinSteps: over random thresholds the cold
// search lands on the smallest grid value at or above the threshold
// within ceil(log2(khi-klo)) bisections plus the top of the grid.
func TestSearchConvergesWithinSteps(t *testing.T) {
	ratio := 1.0625
	lb, ub := 1.0, 17.0
	klo, khi := gridBounds(lb, ub, ratio)
	maxSteps := 1 + int(math.Ceil(math.Log2(float64(khi-klo))))
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		threshold := 1.01 + rng.Float64()*15
		eval := func(_ context.Context, g float64) (float64, bool) { return g, g >= threshold }
		commit := func(_ float64, v float64, ok bool) *sched.Schedule {
			if !ok {
				return nil
			}
			return guessSchedule(v)
		}
		res := SearchGrid(context.Background(), lb, ub, ratio, 0, eval, commit)
		if want := GridValue(GridIndex(threshold, ratio), ratio); res.FinalGuess != want {
			t.Errorf("trial %d: final %v, want %v (threshold %g)", trial, res.FinalGuess, want, threshold)
		}
		if res.Guesses > maxSteps {
			t.Errorf("trial %d: %d guesses, want <= %d", trial, res.Guesses, maxSteps)
		}
	}
}

// TestSearchCommitSeesValue checks that commit receives the value eval
// produced for that exact guess.
func TestSearchCommitSeesValue(t *testing.T) {
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
	res := SearchGrid(context.Background(), 1, 2, 1.01, 20, eval, commit)
	if res.Schedule == nil {
		t.Fatal("no schedule from accept-all search")
	}
}

// TestSearchSeqContextStopsEarly checks that canceling the context stops
// the cold driver before the next guess: the search returns what it
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
	res := SearchGrid(ctx, 1, 2, 1.01, 40, eval, commit)
	if res.Guesses != 2 {
		t.Errorf("canceled search consumed %d guesses, want 2 (the first two midpoints)", res.Guesses)
	}
	if res.Schedule == nil {
		t.Error("canceled search dropped the best-so-far schedule")
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
		cold := SearchGrid(context.Background(), lb, ub, ratio, 0, eval, commit)
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
	cold := SearchGrid(context.Background(), lb, ub, ratio, 0, eval, commit)
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
	SearchGrid(context.Background(), 1, 1e9, 1.0001, 5, eval, commit)
	if evals > 5 {
		t.Errorf("cold grid search evaluated %d guesses, want <= 5", evals)
	}
	evals = 0
	SearchWarm(context.Background(), 1, 1e9, 17, 1.0001, 5, eval, commit)
	if evals > 5 {
		t.Errorf("warm grid search evaluated %d guesses, want <= 5", evals)
	}
}

// TestSearchRespectsMaxGuesses checks that the cold driver reports
// exactly the guesses it committed, and at most maxGuesses of them.
func TestSearchRespectsMaxGuesses(t *testing.T) {
	commits := 0
	eval := func(_ context.Context, g float64) (float64, bool) { return g, false }
	commit := func(g float64, v float64, ok bool) *sched.Schedule { commits++; return nil }
	res := SearchGrid(context.Background(), 1, 1e9, 1.0001, 5, eval, commit)
	if commits > 5 || res.Guesses != commits {
		t.Errorf("grid search committed %d guesses and reported %d, want the same count <= 5", commits, res.Guesses)
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
	cold := SearchGrid(context.Background(), 1, 4, ratio, 0, eval, commit)
	for _, seed := range []float64{1e-6, 1e6} {
		warm := SearchWarm(context.Background(), 1, 4, seed, ratio, 0, eval, commit)
		if warm.Schedule == nil || warm.FinalGuess != cold.FinalGuess {
			t.Errorf("seed=%g: warm final %v, cold final %v", seed, warm.FinalGuess, cold.FinalGuess)
		}
	}
}

// refSearchGrid is the cold driver as it stood before the top of the
// grid moved last, kept as the reference: it probes khi first, then
// bisects (klo, khi] until hi-lo == 1 or the budget is spent.
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
// eval saw and the indexes commit consumed, in order.
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
	r := vectorRun{evaluated: map[int]bool{}}
	eval := func(_ context.Context, g float64) (int, bool) {
		k, ok := c.index[g]
		if !ok {
			t.Errorf("guess %v is not a grid value in (%d, %d]", g, c.klo, c.khi)
			return 0, false
		}
		r.evaluated[k] = true
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

func (c *vectorCase) cold(t testing.TB, maxGuesses int) vectorRun {
	return c.run(t, func(eval func(context.Context, float64) (int, bool), commit func(float64, int, bool) *sched.Schedule) SearchResult {
		return SearchGrid(context.Background(), c.lb, c.ub, c.ratio, maxGuesses, eval, commit)
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
func checkColdAgainstRef(t testing.TB, c *vectorCase, maxGuesses int) {
	t.Helper()
	ref, got := c.ref(t, maxGuesses), c.cold(t, maxGuesses)
	label := fmt.Sprintf("accept %v, budget %d", c.accept, maxGuesses)
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
// across interval widths and budgets.
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
				checkColdAgainstRef(t, c, maxGuesses)
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
			cold := c.cold(t, 0).res
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
// warm seed index, data[3] flags (bit 0 unused, bit 1 monotone,
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
		monotone := flags&2 != 0
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
		checkColdAgainstRef(t, c, maxGuesses)

		seed := GridValue(c.klo-2+at(2)%(width+5), c.ratio)
		checkWarm(t, c, seed, maxGuesses, nil)
		if monotone {
			cold := c.cold(t, 0).res
			checkWarm(t, c, seed, 0, &cold)
		}
	})
}
