package oracle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfgmilp"
)

// Logical-time exchange rates of the race clock, in abstract work units
// roughly proportional to real cost: one simplex pivot (a dense tableau
// sweep) is worth ~32 DP states (a few dozen integer operations each),
// and each branch-and-bound node pays a fixed surcharge for its problem
// clone and feasibility checks. All rates are powers of two so logical
// times are exact int64 products. The rates are part of the
// deterministic contract: changing them changes which backend wins close
// races — everywhere, reproducibly.
const (
	bnbNodeCost int64 = 1024
	lpPivotCost int64 = 128
	dpStateCost int64 = 4
)

// bnbLogical is the branch-and-bound backend's logical clock: cumulative
// pivots dominate (node costs vary hugely; pivot counts track them), with
// a per-node surcharge. Monotone in (nodes, pivots), so in-flight ticks
// never exceed the finisher's posted time.
func bnbLogical(nodes, pivots int) int64 {
	return int64(nodes)*bnbNodeCost + int64(pivots)*lpPivotCost
}

// tickFunc is the race clock hook a raced backend calls with its
// cumulative logical work; a non-nil return aborts the backend's solve.
type tickFunc func(logical int64) error

// errOutraced aborts a raced backend whose logical work has provably
// exceeded the best finisher's logical time.
var errOutraced = errors.New("oracle: outraced")

// parallelRaceThreshold is the pattern count above which the race runs
// its backends on concurrent goroutines. Below it the whole solve is
// microseconds-scale and goroutine spawn/join would dominate, so the
// backends run sequentially — with the identical adjudication rule, so
// the outcome is the same either way (only the wall-clock accounting of
// losers differs).
const parallelRaceThreshold = 256

// Portfolio races its backends on one model and returns the winning
// outcome.
//
// # Determinism
//
// A naive race ("first goroutine to return wins") would make the solver
// nondeterministic: which backend finishes first in wall-clock depends
// on machine load. The portfolio instead adjudicates in *logical time*:
// every backend counts its own deterministic work units (bnb nodes and
// simplex pivots, DP states, converted at the fixed exchange rates
// above), a finisher with a definitive outcome — a feasible plan or a
// proof of infeasibility — posts its logical finish time, and the winner
// is the definitive finisher with the smallest logical time, ties broken
// by position in the backend list. Since each backend's outcome and work
// count are deterministic, the winner — and with it the returned plan —
// is a pure function of the model and limits, independent of scheduling.
//
// Cancellation stays real: a running backend polls the posted deadline
// on its work clock — per simplex pivot, per DP state batch — and aborts
// as soon as its own logical time exceeds it. At that point it cannot
// win anymore (its finish time could only be larger), so killing it
// cannot change the adjudication. Backends whose outcome is not
// definitive (work-budget limits, unsupported model shapes) drop out of
// the race without posting a deadline and without disqualifying the
// others.
//
// Execution strategy is a pure performance choice with no effect on the
// result: above parallelRaceThreshold patterns the backends run on
// concurrent goroutines (losers burn at most the winner's logical time
// plus one poll interval, concurrently); below it they run sequentially
// in list order, where a later backend starts with the deadline already
// posted and so aborts at its very first tick when it has already lost.
//
// The one caveat is inherited from bnb: a caller-set wall-clock
// TimeLimit (none by default) can turn a would-be definitive outcome
// into a limit outcome under load, the same caveat sequential solves
// have (see core.Options.Speculate).
type Portfolio struct {
	// Backends is the raced set, in tie-break order.
	Backends []Backend
}

// Name returns "portfolio".
func (Portfolio) Name() string { return "portfolio" }

// raceOutcome is one backend's result plus its race bookkeeping.
type raceOutcome struct {
	plan       *cfgmilp.Plan
	stats      Stats
	err        error
	logical    int64 // logical finish time; valid when definitive
	definitive bool
	elapsed    time.Duration
}

// finish fills the race bookkeeping of a completed backend call.
func (o *raceOutcome) finish() {
	if o.err == nil || errors.Is(o.err, ErrInfeasible) {
		o.definitive = true
		o.logical = bnbLogical(o.stats.Nodes, o.stats.Pivots) + o.stats.States*dpStateCost
	}
}

// Solve races the backends on b and returns the deterministic winner's
// outcome. See the type documentation for the adjudication rules.
func (p Portfolio) Solve(ctx context.Context, b *cfgmilp.Built, lim Limits) (*cfgmilp.Plan, Stats, error) {
	if len(p.Backends) == 0 {
		return nil, Stats{Backend: "portfolio"}, fmt.Errorf("%w (portfolio has no backends)", ErrUnsupported)
	}
	if len(p.Backends) == 1 {
		return p.Backends[0].Solve(ctx, b, lim)
	}
	var outs []raceOutcome
	if b.PatternCount() > parallelRaceThreshold {
		outs = p.raceParallel(ctx, b, lim)
	} else {
		outs = p.raceSequential(ctx, b, lim)
	}
	return p.adjudicate(ctx, outs)
}

// raceParallel runs every backend on its own goroutine against a shared
// atomic deadline.
func (p Portfolio) raceParallel(ctx context.Context, b *cfgmilp.Built, lim Limits) []raceOutcome {
	var deadline atomic.Int64
	deadline.Store(math.MaxInt64)
	post := func(t int64) {
		for {
			cur := deadline.Load()
			if t >= cur || deadline.CompareAndSwap(cur, t) {
				return
			}
		}
	}
	outs := make([]raceOutcome, len(p.Backends))
	var wg sync.WaitGroup
	for i, bk := range p.Backends {
		i, bk := i, bk
		blim := lim
		if i > 0 {
			// The scratch arena is single-goroutine; only the first
			// raced backend may use it.
			blim.Arena = nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := func(logical int64) error {
				if logical > deadline.Load() {
					return errOutraced
				}
				return nil
			}
			start := time.Now()
			plan, st, err := withTick(bk, tick).Solve(ctx, b, blim)
			o := raceOutcome{plan: plan, stats: st, err: err, elapsed: time.Since(start)}
			o.finish()
			if o.definitive {
				post(o.logical)
			}
			outs[i] = o
		}()
	}
	wg.Wait()
	return outs
}

// raceSequential runs the backends one after another in list order
// against the same deadline rule. A backend that starts after a faster
// finisher posted aborts at its first tick, so small models pay no
// goroutine overhead and almost nothing for the losers.
func (p Portfolio) raceSequential(ctx context.Context, b *cfgmilp.Built, lim Limits) []raceOutcome {
	deadline := int64(math.MaxInt64)
	outs := make([]raceOutcome, len(p.Backends))
	for i, bk := range p.Backends {
		blim := lim
		if i > 0 {
			// Mirror raceParallel: one arena user per race, so the
			// allocation profile does not depend on the race strategy.
			blim.Arena = nil
		}
		tick := func(logical int64) error {
			if logical > deadline {
				return errOutraced
			}
			return nil
		}
		start := time.Now()
		plan, st, err := withTick(bk, tick).Solve(ctx, b, blim)
		o := raceOutcome{plan: plan, stats: st, err: err, elapsed: time.Since(start)}
		o.finish()
		if o.definitive && o.logical < deadline {
			deadline = o.logical
		}
		outs[i] = o
	}
	return outs
}

// adjudicate picks the deterministic winner: the smallest logical finish
// time among definitive outcomes, earliest backend on ties.
func (p Portfolio) adjudicate(ctx context.Context, outs []raceOutcome) (*cfgmilp.Plan, Stats, error) {
	agg := Stats{Backend: "portfolio", Raced: len(p.Backends)}
	if err := ctx.Err(); err != nil {
		return nil, agg, err
	}
	winner := -1
	for i := range outs {
		if outs[i].definitive && (winner < 0 || outs[i].logical < outs[winner].logical) {
			winner = i
		}
		// Utilization telemetry sums over the whole raced set: worker
		// lanes are a shared resource, so the solve's speculative
		// activity is the union of every backend's.
		agg.Steals += outs[i].stats.Steals
		agg.SpecUsed += outs[i].stats.SpecUsed
		if outs[i].stats.Workers > agg.Workers {
			agg.Workers = outs[i].stats.Workers
		}
	}
	if winner < 0 {
		// Nobody decided the model. Surface a wall-clock stop if any
		// backend hit one (without the load it might have decided, so
		// the outcome must not be memoized), else a limit if any backend
		// hit one (the pipeline's degradation ladder reacts to both),
		// else the first backend's error.
		for i := range outs {
			agg.LoserNodes += outs[i].stats.Nodes
			agg.LoserStates += outs[i].stats.States
			agg.LoserTime += outs[i].elapsed
		}
		for _, limit := range []error{ErrTimeLimit, ErrLimit} {
			for i := range outs {
				if errors.Is(outs[i].err, limit) {
					return nil, agg, outs[i].err
				}
			}
		}
		return nil, agg, outs[0].err
	}

	win := &outs[winner]
	agg.Backend = win.stats.Backend
	agg.Nodes = win.stats.Nodes
	agg.Pivots = win.stats.Pivots
	agg.States = win.stats.States
	for i := range outs {
		if i == winner {
			continue
		}
		agg.LoserNodes += outs[i].stats.Nodes
		agg.LoserStates += outs[i].stats.States
		agg.LoserTime += outs[i].elapsed
	}
	return win.plan, agg, win.err
}

// withTick returns a copy of bk wired to the race clock. Backends
// unknown to the oracle package race untimed: they can still win, but
// only by finishing with less logical work than every timed backend.
func withTick(bk Backend, t tickFunc) Backend {
	switch v := bk.(type) {
	case BnB:
		v.tick = t
		return v
	case CfgDP:
		v.tick = t
		return v
	default:
		return bk
	}
}
