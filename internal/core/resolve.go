// Incremental re-solve: ResolveContext answers a delta against a prior
// Result without paying the full from-scratch search.
//
// Three mechanisms stack, each independently result-transparent with
// respect to the EPTAS contract:
//
//  1. Warm-started search. Makespan guesses live on an absolute
//     geometric grid (round.GridRatio), so the acceptance boundary is a
//     property of the instance alone. The re-solve seeds the search at
//     the prior makespan's grid index and probes outward geometrically
//     (round.SearchWarm) instead of bisecting the full [lb, ub]
//     interval; under the pipeline's monotone acceptance it converges
//     to the bit-identical schedule a from-scratch solve of the
//     post-delta instance returns, in a number of guesses that scales
//     with how far the delta moved the optimum, not with the interval.
//     Like the cold search it treats the top of the interval as
//     accepted and evaluates it last, only when no guess below it was
//     accepted, so a seed at or above the top bisects the interval
//     directly.
//
//  2. Memo carry-over. The prior solve's cross-guess memo rides along
//     on Result.Memo; guesses whose scaled-rounded signature is
//     unchanged by the delta (for example, resizes within a rounding
//     class) are served from it without re-running the pipeline.
//
//  3. Placement repair (opt-in, Options.Repair). Before searching at
//     all, carry every unchanged job's assignment over from the prior
//     schedule and greedily re-place only the churned jobs
//     (placer.Repair). The repaired schedule is accepted only when its
//     makespan stays within (1+Eps) of the post-delta lower bound — a
//     certificate at least as strong as the search's own guarantee —
//     and otherwise the warm search runs. Repair trades bit-identity
//     with the from-scratch solve for near-zero latency, which is why
//     it is off by default.
package core

import (
	"context"
	"fmt"

	"repro/internal/placer"
	"repro/internal/plan"
	"repro/internal/round"
	"repro/internal/sched"
)

// Resolve applies delta to the prior result's instance and re-solves
// incrementally. See ResolveContext.
func Resolve(prior *Result, delta sched.Delta, opt Options) (*Result, error) {
	return ResolveContext(context.Background(), prior, delta, opt)
}

// ResolveContext applies delta to prior.Input and solves the post-delta
// instance, warm-starting from the prior result: the search is seeded
// at the prior makespan, the prior solve's memo serves
// signature-preserving guesses, and (when opt.Repair is set) a
// placement repair may answer without searching at all. Without Repair
// the returned schedule is bit-identical to SolveContext on the
// post-delta instance under the same options.
//
// The prior result must come from SolveContext or ResolveContext (it
// carries the input instance and the memo); opt is typically
// prior.Options, possibly with resolve-only knobs flipped. A nil
// opt.Cache defaults to prior.Memo.
func ResolveContext(ctx context.Context, prior *Result, delta sched.Delta, opt Options) (*Result, error) {
	if prior == nil || prior.Input == nil {
		return nil, fmt.Errorf("eptas: resolve needs a prior result carrying its input instance (run Solve first)")
	}
	post, churn, err := delta.Apply(prior.Input)
	if err != nil {
		return nil, err
	}
	if opt.Cache == nil {
		opt.Cache = prior.Memo
	}
	return runAdaptive(ctx, post, opt, func(ctx context.Context, opt Options) (*Result, error) {
		return resolveSearch(ctx, prior, post, churn, opt)
	})
}

// resolveSearch is the planning-free incremental re-solve: repair fast
// path, then the warm-started search.
func resolveSearch(ctx context.Context, prior *Result, post *sched.Instance, churn *sched.Churn, opt Options) (*Result, error) {
	env, err := prepareSolve(ctx, post, opt)
	if err != nil {
		return nil, err
	}
	if env.done {
		return env.res, nil
	}

	if opt.Repair && prior.Schedule != nil {
		if res, ok := env.tryRepair(prior.Schedule, churn); ok {
			return res, nil
		}
	}

	eval, commit := env.searchFuncs()
	// Seed at the prior accepted grid point — the boundary itself when
	// the delta left it unmoved. The makespan is the fallback seed (a
	// prior that returned its fallback schedule has no final guess);
	// either way the warm search clamps the seed onto (lb, ub].
	seed := prior.Stats.FinalGuess
	if seed <= 0 {
		seed = prior.Makespan
	}
	if seed <= 0 {
		seed = env.lb
	}
	search := round.SearchWarm(ctx, env.lb, env.ub, seed, round.GridRatio(opt.Eps),
		opt.MaxGuesses, eval, commit)
	return env.finish(ctx, search)
}

// tryRepair runs the placement-repair fast path: carry unchanged
// assignments from prior onto the post-delta work instance, re-place
// churned jobs greedily, and accept iff the repaired makespan is within
// (1+Eps) of the post-delta lower bound. Reports ok=false — and leaves
// env untouched for the warm search — when the repair fails or the
// certificate does not hold.
func (env *solveEnv) tryRepair(prior *sched.Schedule, churn *sched.Churn) (*Result, bool) {
	s, rst, err := placer.Repair(prior, env.work, churn)
	if err != nil {
		return nil, false
	}
	ms := s.Makespan()
	if ms > (1+env.opt.Eps)*env.lb {
		return nil, false
	}
	res := env.res
	res.Schedule = s
	res.Makespan = ms
	res.Stats.Repaired = true
	res.Stats.RepairStats = rst
	res.Memo = env.engine.Cache()
	// The repair certificate ms <= (1+eps)*lb is exactly the eptas
	// bound.
	env.setQuality(plan.RungRepair)
	return res, true
}
