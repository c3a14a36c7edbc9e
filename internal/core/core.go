// Package core implements the paper's main result: the efficient
// polynomial-time approximation scheme (EPTAS) for machine scheduling
// with bag-constraints on identical machines (Theorem 1).
//
// Solve runs a dual-approximation binary search over makespan guesses;
// each guess is decided by the staged per-guess pipeline of
// internal/pipeline (scale → classify → transform → enumerate → MILP →
// place → lift), driven through one shared pipeline.Engine so that
// guesses falling into the same geometric-rounding equivalence class are
// decided once and memoized. Cancellation flows through context.Context
// from SolveContext down to the branch-and-bound loop.
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cfgmilp"
	"repro/internal/family"
	"repro/internal/greedy"
	"repro/internal/memo"
	"repro/internal/milp"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/placer"
	"repro/internal/plan"
	"repro/internal/round"
	"repro/internal/sched"
	"repro/internal/transform"
)

// Options configures the scheme.
type Options struct {
	// Eps is the accuracy parameter in (0, 1). The schedule is within
	// 1+O(Eps) of optimal; smaller values are slower.
	Eps float64
	// Family selects the problem family the solver runs as. Nil (the
	// default) is family.Bags — the paper's bag-constrained EPTAS,
	// byte-for-byte the pre-seam behavior. family.Identical drops the
	// bag structure (every job its own bag); family.Related solves
	// uniformly related machines with few distinct speeds. See
	// internal/family.
	Family family.Family
	// Mode selects the MILP flavour; the default is ModeDecomposed.
	Mode cfgmilp.Mode
	// PatternLimit bounds pattern enumeration (default
	// pattern.DefaultLimit); a guess whose pattern space exceeds the
	// limit is rejected.
	PatternLimit int
	// MILP tunes the branch-and-bound solver; StopAtFirst is forced on
	// (the configuration program is a feasibility problem).
	MILP milp.Options
	// Oracle selects the integer-programming oracle that decides each
	// guess's configuration program: the zero value is the default
	// policy (the exact configuration DP, then branch-and-bound when the
	// DP declines or exhausts its budget); Oracle.Backend pins either
	// backend. See internal/oracle.
	Oracle oracle.Selection
	// MaxGuesses bounds the binary-search decisions (default 40).
	MaxGuesses int
	// AllPriority disables priority-bag selection and the instance
	// transformation, yielding the Das–Wiese-style configuration program
	// whose cost grows with the number of bags (baseline for EX-T2).
	AllPriority bool
	// BPrimeOverride caps the Definition 2 priority constant b'; see
	// classify.Options.BPrimeOverride.
	BPrimeOverride int
	// Speculate controls speculative parallel guess evaluation in the
	// binary search. 1 evaluates guesses strictly sequentially; any
	// larger value (all treated alike) evaluates the current midpoint
	// and its two possible successor midpoints concurrently (up to
	// three live pipelines per round). 0 picks automatically:
	// speculative when more than one CPU is available. Speculation is
	// result-transparent — the consumed guess sequence, the accepted
	// schedule and all decision statistics are bit-for-bit identical to
	// the sequential search, because every oracle budget is a work count
	// and per-guess outcomes never depend on load. Only the
	// cache-hit/miss split in Stats (never a result) can vary under
	// speculation.
	Speculate int
	// Cache, when non-nil, is a shared cross-request memo the pipeline
	// engine stores guess outcomes in (and serves hits from) instead of
	// a private per-solve one — the serving layer passes one bounded
	// cache here for every request. Results are bit-identical with and
	// without a shared cache (the differential tests enforce this);
	// sharing only avoids repeated work. See internal/memo.
	Cache *memo.Cache
	// DisableMemo turns off the cross-guess memoization of the pipeline
	// engine, including a shared Cache. Results are identical with and
	// without the memo (the differential tests enforce this); disabling
	// it only repeats work.
	DisableMemo bool
	// Float64Ref runs the post-rounding pipeline on the retained float64
	// reference arithmetic instead of the exact int64 fixed-point
	// representation. Results are bit-for-bit identical (the differential
	// tests assert it across the workload corpus); the flag exists only
	// for those tests and for benchmark baselines.
	Float64Ref bool
	// Adaptive enables SLO-aware admission-time planning: before the
	// search runs, the attached Planner walks the degradation ladder
	// (requested eps → coarser eps → heuristics) and rewrites Eps and
	// Heuristic to the cheapest configuration predicted to finish within
	// Deadline while honoring MinQuality.
	// Ignored when Planner is nil. Off by default: adaptive-off solves
	// are bit-identical to a build without the planner
	// (plan_diff_test.go enforces it).
	Adaptive bool
	// Planner is the online cost model adaptive solving plans against.
	// When non-nil it also *observes*: every completed solve folds its
	// measured latency into the model, keyed by (family, size bucket,
	// rung, eps, backend) — observation never changes an answer, so
	// attaching a model is result-transparent. See internal/plan.
	Planner *plan.Model
	// Deadline is this solve's latency budget. When positive it bounds
	// the solve context (exceeding it aborts with DeadlineExceeded) and
	// is the budget adaptive planning fits configurations into; 0 means
	// no deadline (adaptive planning then falls back to the context's
	// own deadline, if any).
	Deadline time.Duration
	// MinQuality is the adaptive quality floor: the worst acceptable
	// approximation bound (e.g. 1.5 admits eps rungs up to 0.5 and
	// nothing coarser). When no ladder rung meets both the floor and
	// the deadline the solve refuses with plan.ErrUnattainable instead
	// of degrading further. 0 means no floor — the planner then
	// answers best-effort rather than refuse.
	MinQuality float64
	// Heuristic forces a heuristic rung instead of the EPTAS search:
	// plan.RungLPT answers with the family's LPT fallback schedule,
	// plan.RungGreedy with the input-order least-loaded list schedule.
	// Adaptive planning sets it when the deadline only affords a
	// heuristic; callers may also set it directly. Result.Quality
	// carries the rung's approximation bound.
	Heuristic string
	// Repair enables the placement-repair fast path of ResolveContext:
	// when set, a re-solve first tries to carry the prior schedule's
	// unchanged assignments over and greedily re-place only the churned
	// jobs, accepting the repaired schedule when its makespan stays
	// within (1+Eps) of the post-delta lower bound — a certificate at
	// least as strong as the search's own guarantee. Repaired schedules
	// may legitimately differ from what a from-scratch solve returns
	// (the makespan bound is the contract, not bit-identity), so the
	// flag is off by default and ignored by Solve.
	Repair bool
}

// Stats describes the EPTAS search effort.
type Stats struct {
	// Guesses is the number of makespan guesses tried.
	Guesses int
	// FinalGuess is the smallest accepted makespan guess of the search
	// (0 when no guess was accepted). Guesses live on an absolute
	// geometric grid (see round.GridRatio), so the final guess of a
	// solve marks the acceptance boundary and seeds the warm-started
	// search of an incremental re-solve — even when the bag-LPT
	// fallback beat the accepted schedule and was returned instead.
	FinalGuess float64
	// FailedGuesses counts guesses rejected (MILP infeasible, pattern
	// explosion or placement failure).
	FailedGuesses int
	// Patterns is the pattern count of the last accepted guess.
	Patterns int
	// IntegerVars is the MILP integer dimension of the last accepted
	// guess.
	IntegerVars int
	// MILPNodes is the total branch-and-bound nodes over all accepted
	// guesses (cache-served guesses count the nodes of the pipeline run
	// that produced their outcome, so the total matches an unmemoized
	// search). Guesses decided by the configuration DP contribute to
	// DPStates instead.
	MILPNodes int
	// DPStates is the total configuration-DP states expanded by cfgdp
	// solves over all accepted guesses.
	DPStates int64
	// OracleBackend is the backend that decided the last accepted guess.
	OracleBackend string
	// K, Q, BPrime are the classification parameters of the last
	// accepted guess.
	K, Q, BPrime int
	// PriorityBags is the number of priority bags of the last accepted
	// guess.
	PriorityBags int
	// Place reports placement repairs of the last accepted guess.
	Place placer.Stats
	// Lift reports lift work of the last accepted guess.
	Lift transform.LiftStats
	// Fallback is true when no guess was accepted and the returned
	// schedule is the bag-LPT upper bound.
	Fallback bool
	// Repaired is true when ResolveContext's placement-repair fast path
	// produced the returned schedule without running the search (see
	// Options.Repair); RepairStats then reports the repair work.
	Repaired    bool
	RepairStats placer.RepairStats

	// PipelineRuns counts full pipeline executions, including rejected
	// guesses and abandoned speculative evaluations.
	PipelineRuns int
	// CacheHits and CacheMisses report the cross-guess memo traffic of
	// the pipeline engine: a hit is a guess decided without re-running
	// the pipeline because an earlier guess scaled-rounded to the same
	// instance. Under speculative evaluation the split can vary between
	// runs; results never do.
	CacheHits   int
	CacheMisses int
	// StageTime is total wall-clock time per pipeline stage (keyed by
	// pipeline.StageNames()) over every execution of this solve,
	// including rejected and abandoned speculative pipelines.
	StageTime map[string]time.Duration
}

// Decision returns a copy of s with the engine-level work counters
// (PipelineRuns, CacheHits, CacheMisses, StageTime) cleared. What remains
// is determined solely by the consumed guess sequence, so it is
// bit-for-bit reproducible across sequential, speculative, batched,
// memoized and unmemoized runs — the determinism tests compare exactly
// this projection.
func (s Stats) Decision() Stats {
	s.PipelineRuns, s.CacheHits, s.CacheMisses, s.StageTime = 0, 0, 0, nil
	return s
}

// Result is the outcome of Solve.
type Result struct {
	// Schedule is a feasible schedule of the input instance.
	Schedule *sched.Schedule
	// Makespan is the schedule's makespan.
	Makespan float64
	// LowerBound is the combinatorial lower bound on OPT.
	LowerBound float64
	// Stats describes the search.
	Stats Stats
	// Quality reports which rung of the degradation ladder answered and
	// the approximation bound the answer guarantees; populated on every
	// result, adaptive or not.
	Quality Quality

	// Input is the instance the solve ran on — the caller's instance,
	// before any family preparation. ResolveContext applies deltas to
	// it.
	Input *sched.Instance
	// Options records the options the solve ran with, so an incremental
	// re-solve reuses the exact configuration (family, backend, eps)
	// that produced the prior result.
	Options Options
	// Memo is the cross-guess memo the solve stored pipeline outcomes
	// in: the shared cache when one was passed, the solve's private memo
	// otherwise (nil when memoization was disabled or the solve returned
	// early). ResolveContext defaults its cache to it, so guesses whose
	// scaled-rounded signature is unchanged by the delta are served
	// without re-running the pipeline.
	Memo *memo.Cache
}

// PipelineResult exposes every intermediate artifact of one makespan
// guess; see pipeline.Result.
type PipelineResult = pipeline.Result

// Solve runs the EPTAS. The input instance is not modified.
func Solve(in *sched.Instance, opt Options) (*Result, error) {
	return SolveContext(context.Background(), in, opt)
}

// SolveContext runs the EPTAS under a context. Cancellation reaches every
// layer — between binary-search guesses, between pipeline stages, inside
// pattern enumeration and inside the MILP branch-and-bound loop — so a
// canceled or expired context aborts the solve promptly and returns
// ctx.Err(). With Options.Adaptive set the solve is preceded by an
// admission-time planning step that may coarsen eps or answer with a
// heuristic rung to meet Options.Deadline; see Options.Adaptive and
// internal/plan.
func SolveContext(ctx context.Context, in *sched.Instance, opt Options) (*Result, error) {
	return runAdaptive(ctx, in, opt, func(ctx context.Context, opt Options) (*Result, error) {
		return solveSearch(ctx, in, opt)
	})
}

// solveSearch is the planning-free solve: validate, prepare, binary
// search, finish.
func solveSearch(ctx context.Context, in *sched.Instance, opt Options) (*Result, error) {
	env, err := prepareSolve(ctx, in, opt)
	if err != nil {
		return nil, err
	}
	if env.done {
		return env.res, nil
	}
	eval, commit := env.searchFuncs()
	var search round.SearchResult
	ratio := round.GridRatio(opt.Eps)
	if speculative(opt) {
		search = round.SearchGridSpec(ctx, env.lb, env.ub, ratio, opt.MaxGuesses, eval, commit)
	} else {
		search = round.SearchGridSeq(ctx, env.lb, env.ub, ratio, opt.MaxGuesses, eval, commit)
	}
	return env.finish(ctx, search)
}

// solveEnv is the shared scaffolding of a solve or re-solve: the
// validated, family-prepared instance, its bounds, the fallback
// schedule and the pipeline engine the search drives. SolveContext and
// ResolveContext differ only in the search strategy they run on it.
type solveEnv struct {
	opt     Options
	fam     family.Family
	work    *sched.Instance
	lb, ub  float64
	ubSched *sched.Schedule
	engine  *pipeline.Engine
	res     *Result
	done    bool // res is complete; no search needed
}

// prepareSolve validates in under opt and builds the search
// environment. When done is set on the returned env, its res is a
// complete early result (empty instance, or a provably optimal
// fallback) and no search runs.
func prepareSolve(ctx context.Context, in *sched.Instance, opt Options) (*solveEnv, error) {
	if err := ctx.Err(); err != nil {
		// An already-dead context aborts before any work — including the
		// early-return paths (empty instance, provably optimal bag-LPT)
		// that never reach the search loop's own ctx checks.
		return nil, err
	}
	fam := opt.Family
	if fam == nil {
		fam = family.Bags
	}
	if err := fam.Validate(in); err != nil {
		return nil, err
	}
	if err := fam.Feasible(in); err != nil {
		return nil, err
	}
	if opt.Eps <= 0 || opt.Eps >= 1 {
		return nil, fmt.Errorf("eptas: Eps must be in (0,1), got %g", opt.Eps)
	}
	// work is the instance the pipeline runs on: the input itself for
	// Bags (bit-identical pre-seam behaviour), a singleton-bag clone for
	// families without bag-constraints. Schedules are bound to work;
	// its jobs, sizes and machine count match the input position for
	// position, so assignments read back directly.
	env := &solveEnv{
		opt:  opt,
		fam:  fam,
		work: fam.Prepare(in),
		res:  &Result{Input: in, Options: opt},
	}
	if len(in.Jobs) == 0 {
		env.res.Schedule = sched.NewSchedule(env.work)
		env.setQuality(plan.RungEPTAS)
		env.done = true
		return env, nil
	}

	env.lb = fam.LowerBound(in)
	env.res.LowerBound = env.lb
	ubSched, err := fam.Fallback(env.work)
	if err != nil {
		return nil, err
	}
	env.ubSched = ubSched
	env.ub = ubSched.Makespan()

	// The bag-LPT schedule may already be provably optimal.
	if env.ub <= env.lb {
		env.res.Schedule = ubSched
		env.res.Makespan = env.ub
		env.setQuality(plan.RungLPT)
		env.done = true
		return env, nil
	}

	// A forced heuristic rung (planned, or set by the caller) answers
	// without searching: the family's LPT fallback is already in hand,
	// the greedy rung list-schedules in input order.
	if opt.Heuristic != "" {
		sch, err := env.heuristicSchedule(opt.Heuristic)
		if err != nil {
			return nil, err
		}
		env.res.Schedule = sch
		env.res.Makespan = sch.Makespan()
		env.setQuality(opt.Heuristic)
		env.done = true
		return env, nil
	}
	env.engine = pipeline.New(pipelineConfig(opt))
	return env, nil
}

// heuristicSchedule executes one heuristic rung on the prepared work
// instance.
func (env *solveEnv) heuristicSchedule(name string) (*sched.Schedule, error) {
	switch name {
	case plan.RungLPT:
		return env.ubSched, nil
	case plan.RungGreedy:
		order := make([]int, len(env.work.Jobs))
		for i := range order {
			order[i] = i
		}
		return greedy.ListSchedule(env.work, order)
	}
	return nil, fmt.Errorf("eptas: unknown heuristic rung %q", name)
}

// searchFuncs returns the eval/commit pair the binary search drives.
// eval is pure (the engine memo is internally synchronized and
// result-transparent); all Stats mutation happens in commit, which the
// search invokes in deterministic sequential order for consumed guesses
// only (discarded speculative pipelines never report).
func (env *solveEnv) searchFuncs() (
	func(ctx context.Context, guess float64) (*pipeline.Result, bool),
	func(_ float64, pr *pipeline.Result, ok bool) *sched.Schedule,
) {
	eval := func(ctx context.Context, guess float64) (*pipeline.Result, bool) {
		pr, err := env.engine.Run(ctx, env.work, guess)
		return pr, err == nil
	}
	commit := func(_ float64, pr *pipeline.Result, ok bool) *sched.Schedule {
		if !ok {
			env.res.Stats.FailedGuesses++
			return nil
		}
		env.res.Stats.absorb(pr)
		return pr.Final
	}
	return eval, commit
}

// finish folds a finished search into the result: engine metrics, the
// fallback guard and the retained memo.
func (env *solveEnv) finish(ctx context.Context, search round.SearchResult) (*Result, error) {
	res := env.res
	res.Stats.Guesses += search.Guesses
	m := env.engine.Metrics()
	res.Stats.PipelineRuns = m.Runs
	res.Stats.CacheHits = m.CacheHits
	res.Stats.CacheMisses = m.CacheMisses
	res.Stats.StageTime = m.StageTime
	res.Memo = env.engine.Cache()

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if search.Schedule != nil {
		res.Stats.FinalGuess = search.FinalGuess
	}
	if search.Schedule == nil || env.ub < search.Makespan {
		res.Schedule = env.ubSched
		res.Makespan = env.ub
		res.Stats.Fallback = search.Schedule == nil
		if res.Stats.Fallback {
			// No guess was accepted: the answer is the heuristic upper
			// bound and only its bound is guaranteed.
			env.setQuality(plan.RungLPT)
		} else {
			// A guess was accepted and the fallback merely beat its
			// schedule; the EPTAS guarantee still holds.
			env.setQuality(plan.RungEPTAS)
		}
		return res, nil
	}
	res.Schedule = search.Schedule
	res.Makespan = search.Makespan
	env.setQuality(plan.RungEPTAS)
	return res, nil
}

// RunPipeline executes the full per-guess pipeline of the EPTAS for one
// makespan guess and returns all intermediate artifacts. An error means
// the guess was rejected (MILP infeasible, pattern explosion, placement
// failure) — for a guess at least the optimal makespan this indicates the
// rare solver-limit case, not infeasibility of the instance. See
// pipeline.Engine.Run for the priority-cap degradation ladder.
func RunPipeline(in *sched.Instance, guess float64, opt Options) (*PipelineResult, error) {
	return RunPipelineContext(context.Background(), in, guess, opt)
}

// RunPipelineContext is RunPipeline under a context; a canceled or
// expired context aborts between stages and inside the enumeration and
// branch-and-bound loops.
func RunPipelineContext(ctx context.Context, in *sched.Instance, guess float64, opt Options) (*PipelineResult, error) {
	fam := opt.Family
	if fam == nil {
		fam = family.Bags
	}
	return pipeline.New(pipelineConfig(opt)).Run(ctx, fam.Prepare(in), guess)
}

// pipelineConfig extracts the per-guess pipeline knobs from opt.
func pipelineConfig(opt Options) pipeline.Config {
	return pipeline.Config{
		Eps:            opt.Eps,
		Family:         opt.Family,
		Mode:           opt.Mode,
		PatternLimit:   opt.PatternLimit,
		MILP:           opt.MILP,
		Oracle:         opt.Oracle.Backend,
		AllPriority:    opt.AllPriority,
		BPrimeOverride: opt.BPrimeOverride,
		Cache:          opt.Cache,
		DisableMemo:    opt.DisableMemo,
		Float64Ref:     opt.Float64Ref,
	}
}

// speculative reports whether opt asks for speculative parallel guess
// evaluation; the 0 default enables it whenever a second CPU exists.
func speculative(opt Options) bool {
	if opt.Speculate == 0 {
		return runtime.GOMAXPROCS(0) > 1
	}
	return opt.Speculate > 1
}

// absorb accumulates the per-guess statistics of one accepted pipeline:
// node counts add up, the remaining fields describe the last accepted
// guess. It reads only the fields a memo entry's payload carries (see
// pipeline.EncodeResult), so fresh runs, memo hits and snapshot-imported
// entries absorb alike.
func (s *Stats) absorb(pr *PipelineResult) {
	s.MILPNodes += pr.MILPNodes
	s.DPStates += pr.OracleStats.States
	s.OracleBackend = pr.OracleStats.Backend
	if pr.Parts&(pipeline.PartSpace|pipeline.PartRelSpace) != 0 {
		s.Patterns = pr.Patterns
	}
	s.IntegerVars = pr.IntegerVars
	if pr.Parts&(pipeline.PartInfo|pipeline.PartRelInfo) != 0 {
		s.K, s.Q, s.BPrime, s.PriorityBags = pr.K, pr.Q, pr.BPrime, pr.PriorityBags
	}
	s.Place = pr.PlaceStats
	s.Lift = pr.LiftStats
}
