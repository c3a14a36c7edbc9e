// Package bagsched is a library for machine scheduling with
// bag-constraints (P | bags | Cmax): schedule jobs on identical machines,
// minimizing the makespan, where the jobs are partitioned into bags and no
// machine may run two jobs of the same bag.
//
// The centerpiece is SolveEPTAS, an implementation of the efficient
// polynomial-time approximation scheme of Grage, Jansen and Klein ("An
// EPTAS for machine scheduling with bag-constraints", SPAA 2019): for any
// accuracy eps it returns a feasible schedule with makespan within
// 1+O(eps) of optimal, in time f(1/eps)*poly(n) — in particular the cost
// does not grow with the number of bags, unlike the earlier PTAS of Das
// and Wiese (available here as SolveDasWiese for comparison).
//
// Quick start:
//
//	in := bagsched.NewInstance(4)      // 4 machines
//	in.AddJob(0.8, 0)                  // size 0.8, bag 0
//	in.AddJob(0.7, 0)
//	in.AddJob(0.3, 1)
//	res, err := bagsched.SolveEPTAS(in, 0.5)
//	if err != nil { ... }
//	fmt.Println(res.Makespan, res.Schedule.Loads())
//
// Heuristics (SolveBagLPT, SolveLPT, SolveGreedy, SolveRoundRobin) and an
// exact branch-and-bound solver for small instances (SolveExact) are also
// provided, along with JSON input/output and deterministic workload
// generators under internal/workload for the experiment suite.
//
// # Batch and parallel solving
//
// The solver is deterministic and CPU-bound, which makes it trivially
// parallel across instances: SolveBatch (and NewPool for a reusable
// pool with a fixed worker count) solves many instances concurrently
// and returns outcomes in input order; every per-instance result
// matches a sequential SolveEPTAS call. One solve runs on one
// goroutine: the dual-approximation binary search evaluates its
// makespan guesses one at a time, and each guess's oracle solve is
// sequential.
//
// For example:
//
//	outs := bagsched.SolveBatch(instances, 0.5)
//	for i, o := range outs {
//	    if o.Err != nil { ... }
//	    fmt.Println(i, o.Result.Makespan)
//	}
//
// # Incremental re-solve
//
// Dynamic workloads edit a solved instance instead of replacing it.
// ResolveEPTAS takes a prior Result plus a Delta (jobs added, removed,
// resized, re-bagged; machines added or removed) and re-solves
// warm-started: the search is seeded at the prior accepted guess, the
// prior solve's memo serves signature-preserving guesses, and with
// WithPlacementRepair a small delta can be absorbed by moving only the
// churned jobs. Without repair the answer is bit-identical to a
// from-scratch SolveEPTAS on the edited instance.
//
// # Oracle backends
//
// The integer-programming oracle at the heart of each makespan guess has
// two backends: LP-simplex branch-and-bound (BackendBnB, which decides
// every family and both MILP modes) and an exact configuration dynamic
// program in fixed-point integer arithmetic (BackendCfgDP, decomposed
// mode of the bags and identical families only). By default the DP
// decides each guess and branch-and-bound decides the guesses the DP
// declines or exhausts its state budget on; WithBackend pins one
// backend. The README compares their solve times per fixture.
//
// # Cancellation
//
// Every solver entry point has a Context variant (SolveEPTASContext,
// SolveBatchContext, Pool.SolveEPTASContext, SolveDasWieseContext).
// Cancellation reaches every layer — between binary-search guesses,
// between pipeline stages, inside pattern enumeration and inside the
// MILP branch-and-bound loop — so a canceled or expired context aborts
// a solve promptly with ctx.Err().
package bagsched

import (
	"context"
	"io"
	"time"

	"repro/internal/baselines"
	"repro/internal/batch"
	"repro/internal/cfgmilp"
	"repro/internal/core"
	"repro/internal/family"
	"repro/internal/memo"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/sched"
)

// Instance is a bag-constrained scheduling instance. See NewInstance.
type Instance = sched.Instance

// Job is a single unit of work with a size and a bag.
type Job = sched.Job

// JobID identifies a job within an instance.
type JobID = sched.JobID

// Schedule assigns every job of an instance to a machine.
type Schedule = sched.Schedule

// Conflict is a bag-constraint violation (two jobs of one bag on one
// machine).
type Conflict = sched.Conflict

// Delta is an incremental edit to a previously solved instance: jobs
// added, removed, resized or moved between bags, and machines added or
// removed. Apply it with ResolveEPTAS, which re-solves the edited
// instance warm-started from the prior result.
type Delta = sched.Delta

// Resize changes the size of one existing job in a Delta.
type Resize = sched.Resize

// Rebag moves one existing job to a different bag in a Delta.
type Rebag = sched.Rebag

// NewInstance returns an empty instance with the given machine count.
func NewInstance(machines int) *Instance { return sched.NewInstance(machines) }

// NewRelatedInstance returns an empty uniformly-related-machines
// instance with one machine per speed. Solve it with
// WithFamily(FamilyRelated).
func NewRelatedInstance(speeds []float64) *Instance { return sched.NewRelatedInstance(speeds) }

// LowerBound returns a combinatorial lower bound on the optimal makespan.
func LowerBound(in *Instance) float64 { return sched.LowerBound(in) }

// Result is the outcome of an approximation solve.
type Result = core.Result

// Stats describes the EPTAS search effort.
type Stats = core.Stats

// MILPMode selects the configuration-program flavour used by the EPTAS.
type MILPMode = cfgmilp.Mode

const (
	// ModeDecomposed (default) solves an integer program over pattern
	// multiplicities only and distributes small jobs greedily.
	ModeDecomposed = cfgmilp.ModeDecomposed
	// ModePaper materializes the paper's y variables, including the
	// integral subset of constraint (7). Exponentially larger; use on
	// small instances only.
	ModePaper = cfgmilp.ModePaper
)

// OracleBackend selects the integer-programming oracle that decides each
// makespan guess's configuration program. The zero value is the default
// policy (the configuration DP, then branch-and-bound); BackendBnB and
// BackendCfgDP pin one backend. See the package documentation of
// internal/oracle for the backend contract.
type OracleBackend = oracle.Kind

const (
	// BackendBnB decides guesses with LP-simplex branch-and-bound over
	// the materialized configuration MILP. It handles both MILP modes
	// and arbitrary pattern spaces.
	BackendBnB = oracle.KindBnB
	// BackendCfgDP decides guesses with an exact dynamic program over
	// machine-configuration multiplicities in int64 fixed-point
	// arithmetic — no LP and no floating-point tolerance anywhere in the
	// decision. Decomposed mode of the bags and identical families
	// only: pinned, it rejects every guess of other models, and the
	// solve degrades to its family's fallback schedule.
	BackendCfgDP = oracle.KindCfgDP
)

// ParseBackend parses a CLI backend name ("bnb" or "cfgdp").
func ParseBackend(s string) (OracleBackend, error) { return oracle.ParseKind(s) }

// Family is one load-balancing problem family the solver pipeline can
// run as. See the package documentation of internal/family for the
// seam's contract and WithFamily to select one.
type Family = family.Family

var (
	// FamilyBags (the default) is the paper's bag-constrained
	// identical-machines problem (P | bags | Cmax); results are
	// byte-for-byte those of the pre-family API.
	FamilyBags = family.Bags
	// FamilyIdentical is plain identical-machines makespan scheduling
	// (P || Cmax): bag structure is ignored (every job its own bag) and
	// the bags pipeline runs on the degenerate instance.
	FamilyIdentical = family.Identical
	// FamilyRelated is uniformly related machines with few distinct
	// speeds (Q || Cmax): configurations are enumerated per speed class
	// against speed-scaled capacities, decided by the same oracle seam.
	FamilyRelated = family.Related
)

// ParseFamily parses a CLI/API family name ("bags", "identical",
// "related"); the empty string selects FamilyBags.
func ParseFamily(s string) (Family, error) { return family.Parse(s) }

// Option customizes SolveEPTAS. Options compose left to right; the
// zero value of every knob selects the documented default. Spec is the
// consolidated struct form of the same knobs — the two styles are
// interchangeable (Spec.Options bridges), and neither is deprecated.
type Option func(*core.Options)

// Spec is the consolidated, self-documenting form of every solver
// option: one struct mirroring the serving layer's request spec, so a
// configuration can be stored, logged, or diffed as a value instead of
// an opaque option list. The zero value of every field selects the same
// default the corresponding With* option documents; bridge into the
// variadic API with Spec.Options.
//
// The functional options remain fully supported — nothing is
// deprecated. Use whichever reads better at the call site; use Spec
// when the configuration crosses an API boundary.
type Spec struct {
	// Family selects the problem family (nil = FamilyBags). See
	// WithFamily.
	Family Family
	// Mode selects the MILP flavour. See WithMode.
	Mode MILPMode
	// Backend pins the oracle backend (zero = the default policy). See
	// WithBackend.
	Backend OracleBackend
	// PatternLimit bounds pattern enumeration (0 = default 20000). See
	// WithPatternLimit.
	PatternLimit int
	// MILPNodes bounds branch-and-bound nodes per guess (0 = default).
	// See WithMILPNodes.
	MILPNodes int
	// MaxGuesses bounds binary-search decisions (0 = default 40). See
	// WithMaxGuesses.
	MaxGuesses int
	// PriorityCap caps the Definition 2 constant b' (0 = theoretical
	// value). See WithPriorityCap.
	PriorityCap int
	// Cache, when non-nil, shares per-guess outcomes across solves. See
	// WithSharedCache.
	Cache *Cache
	// DisableMemo turns cross-guess memoization off (kept for ablation;
	// results are identical either way). See WithMemo.
	DisableMemo bool
	// Repair enables the placement-repair fast path of ResolveEPTAS.
	// See WithPlacementRepair.
	Repair bool

	// Adaptive enables SLO-aware planning: with a Planner attached, the
	// solve may coarsen eps or answer with a bounded heuristic to meet
	// Deadline, reporting what it did in Result.Quality. See
	// WithAdaptive.
	Adaptive bool
	// Planner is the latency cost model consulted by adaptive solves
	// and fed by every successful solve. See WithPlanner.
	Planner *PlanModel
	// Deadline is the latency budget an adaptive solve plans against
	// (and a hard context timeout for the solve). See WithDeadline.
	Deadline time.Duration
	// MinQuality is the worst acceptable approximation bound; an
	// adaptive solve refuses with ErrUnattainable instead of degrading
	// past it. See WithQualityFloor.
	MinQuality float64
}

// Options bridges the struct form into the variadic option API:
// SolveEPTAS(in, eps, spec.Options()...).
func (s Spec) Options() []Option {
	opts := []Option{func(o *core.Options) {
		if s.Family != nil {
			o.Family = s.Family
		}
		o.Mode = s.Mode
		o.Oracle.Backend = s.Backend
		o.PatternLimit = s.PatternLimit
		o.MILP.MaxNodes = s.MILPNodes
		o.MaxGuesses = s.MaxGuesses
		o.BPrimeOverride = s.PriorityCap
		o.Cache = s.Cache
		o.DisableMemo = s.DisableMemo
		o.Repair = s.Repair
		o.Adaptive = s.Adaptive
		o.Planner = s.Planner
		o.Deadline = s.Deadline
		o.MinQuality = s.MinQuality
	}}
	return opts
}

// WithMode selects the MILP flavour.
func WithMode(m MILPMode) Option {
	return func(o *core.Options) { o.Mode = m }
}

// WithFamily selects the problem family the solver runs as (default
// FamilyBags). The family owns instance validation, the lower bound,
// the fallback heuristic and the per-guess decision path; everything
// else — binary search, memoization, batching, the serving layer — is
// shared. Solves under different families never share cache entries
// (the memo fingerprint covers the family).
func WithFamily(f Family) Option {
	return func(o *core.Options) { o.Family = f }
}

// WithBackend pins the oracle backend; without it the default policy
// runs (the configuration DP, then branch-and-bound). The backend
// changes how each guess's configuration program is decided — and, for
// accepted guesses, which of the feasible pattern-multiplicity plans the
// placer realizes — so schedules may legitimately differ between
// backends; every backend and the default policy are individually
// deterministic, exact, and covered by the same 1+O(eps) guarantee.
func WithBackend(b OracleBackend) Option {
	return func(o *core.Options) { o.Oracle.Backend = b }
}

// WithPatternLimit bounds pattern enumeration (default 20000). Makespan
// guesses whose pattern space exceeds the limit are rejected, degrading
// gracefully toward the bag-LPT fallback.
func WithPatternLimit(limit int) Option {
	return func(o *core.Options) { o.PatternLimit = limit }
}

// WithMILPNodes bounds branch-and-bound nodes per makespan guess.
func WithMILPNodes(nodes int) Option {
	return func(o *core.Options) { o.MILP.MaxNodes = nodes }
}

// WithMaxGuesses bounds the binary-search decisions (default 40).
func WithMaxGuesses(g int) Option {
	return func(o *core.Options) { o.MaxGuesses = g }
}

// WithPriorityCap caps the Definition 2 priority-bag constant b' below
// its theoretical value. The theoretical constant exceeds any moderate
// bag count for practical eps, so without a cap the instance
// transformation never triggers; capping exercises the full machinery at
// the cost of the formal (worst-case) guarantee.
func WithPriorityCap(bprime int) Option {
	return func(o *core.Options) { o.BPrimeOverride = bprime }
}

// Cache is a concurrency-safe, bounded, cost-aware memo for pipeline
// outcomes, shared across solves: guesses whose scaled-rounded instances
// (and solver options) coincide are decided once and reused, within a
// solve and across requests. See NewCache, WithSharedCache and the
// documentation of internal/memo for the exact semantics (in-flight
// deduplication, committed negative entries, LRU eviction by measured
// bytes). A Cache's Stats method reports hit/miss/eviction counters.
type Cache = memo.Cache

// CacheStats is a snapshot of a Cache's counters.
type CacheStats = memo.Stats

// NewCache returns a shared solve cache bounded to maxBytes of retained
// results: each entry is charged its encoded payload plus a fixed
// per-entry overhead (the Go runtime's own bookkeeping aside). maxBytes
// <= 0 means unbounded. Pass it to any number of concurrent solves with
// WithSharedCache; the long-running solver service keeps one Cache for
// its whole lifetime.
func NewCache(maxBytes int64) *Cache { return memo.New(maxBytes) }

// WithSharedCache makes the solve store per-guess pipeline outcomes in
// (and serve hits from) c instead of a private per-solve memo, so
// repeated or overlapping workloads skip the guess-enumeration cost
// entirely. Solves under different options or instances never share
// entries falsely (the memo key covers both), and results are
// bit-identical to uncached solves — the cache changes latency, never
// answers. A nil c restores the private per-solve memo.
func WithSharedCache(c *Cache) Option {
	return func(o *core.Options) { o.Cache = c }
}

// SnapshotImportStats reports what ImportCacheSnapshot loaded and what
// it skipped (and why).
type SnapshotImportStats = memo.ImportStats

// ExportCacheSnapshot writes a versioned, checksummed snapshot of c to
// w: every committed entry — positive plans and memoized rejections —
// in recency order, with the plan payloads in the exact integer result
// codec the cache already holds them in. The export reads the cache
// without perturbing its LRU order or counters and never holds the
// cache lock across I/O, so it is safe to call on a cache serving live
// traffic. It returns the number of entries written. Because solves are
// fully determined by their scaled-rounded signature, a snapshot is
// location-independent: importing it on any replica yields
// bit-identical warm results.
func ExportCacheSnapshot(c *Cache, w io.Writer) (int, error) {
	written, _, err := c.Export(w)
	return written, err
}

// ImportCacheSnapshot loads a snapshot written by ExportCacheSnapshot
// into c, warm-starting it. Entries already live in c are kept (the
// import never overwrites), entries beyond c's cost budget are dropped
// coldest-first, and individually undecodable entries are skipped (each
// plan payload is decoded once to validate it); a snapshot whose
// container is corrupt or of an unknown version is rejected as a whole
// with memo.ErrSnapshotCorrupt or memo.ErrSnapshotVersion, leaving c
// unchanged.
func ImportCacheSnapshot(c *Cache, r io.Reader) (SnapshotImportStats, error) {
	return c.Import(r, func(payload []byte) error {
		_, err := pipeline.DecodeResult(payload)
		return err
	})
}

// WithMemo toggles the cross-guess memoization of the per-guess pipeline
// (default on). Geometric rounding collapses adjacent makespan guesses
// into equivalence classes, and the solver decides each class once;
// results are bit-for-bit identical with the memo on or off — disabling
// it only repeats work (kept for tests and ablation experiments). See
// Stats.CacheHits.
func WithMemo(on bool) Option {
	return func(o *core.Options) { o.DisableMemo = !on }
}

// SolveEPTAS schedules in with the EPTAS at accuracy eps in (0,1). The
// result is always a feasible schedule; its makespan is within 1+O(eps)
// of optimal.
func SolveEPTAS(in *Instance, eps float64, opts ...Option) (*Result, error) {
	return SolveEPTASContext(context.Background(), in, eps, opts...)
}

// SolveEPTASContext is SolveEPTAS under a context. Cancellation reaches
// every layer of the solver — between binary-search guesses, between
// pipeline stages, inside pattern enumeration and inside the MILP
// branch-and-bound loop — so a canceled or expired context aborts the
// solve promptly and returns ctx.Err().
func SolveEPTASContext(ctx context.Context, in *Instance, eps float64, opts ...Option) (*Result, error) {
	return core.SolveContext(ctx, in, buildOptions(eps, opts))
}

// ResolveEPTAS applies delta to the instance of a prior SolveEPTAS (or
// ResolveEPTAS) result and re-solves incrementally: the binary search is
// warm-started at the prior result's accepted makespan guess, guesses
// whose scaled-rounded signature the delta left unchanged are served
// from the prior solve's memo without re-running the pipeline, and with
// WithPlacementRepair a small delta may be absorbed by re-placing only
// the churned jobs, skipping the search entirely.
//
// Without WithPlacementRepair the returned schedule is bit-identical to
// SolveEPTAS on the post-delta instance under the same options — the
// warm start is a latency optimization, never a semantic one. With
// repair, an accepted repaired schedule instead carries the certificate
// makespan <= (1+eps)*LowerBound, at least as strong as the search's
// own guarantee.
//
// Options default to the prior solve's (prior.Options); opts override
// on top. The returned Result carries everything the next ResolveEPTAS
// needs, so deltas chain.
func ResolveEPTAS(prior *Result, delta Delta, opts ...Option) (*Result, error) {
	return ResolveEPTASContext(context.Background(), prior, delta, opts...)
}

// ResolveEPTASContext is ResolveEPTAS under a context; cancellation
// reaches every layer exactly as in SolveEPTASContext.
func ResolveEPTASContext(ctx context.Context, prior *Result, delta Delta, opts ...Option) (*Result, error) {
	var o core.Options
	if prior != nil {
		o = prior.Options
	}
	for _, fn := range opts {
		fn(&o)
	}
	return core.ResolveContext(ctx, prior, delta, o)
}

// WithPlacementRepair enables the placement-repair fast path of
// ResolveEPTAS: before searching at all, carry every unchanged job's
// machine over from the prior schedule and greedily re-place only the
// churned jobs. The repaired schedule is returned only when its makespan
// stays within (1+eps) of the post-delta lower bound; otherwise the
// warm-started search runs as if repair were off. Repair trades
// bit-identity with the from-scratch solve for near-zero latency, which
// is why it is opt-in; Stats.Repaired reports whether it engaged.
// SolveEPTAS ignores the option.
func WithPlacementRepair() Option {
	return func(o *core.Options) { o.Repair = true }
}

// Quality reports what a Result actually guarantees: which rung of the
// degradation ladder answered (a full EPTAS search, a bounded
// heuristic, or the resolve repair path), the accuracy it ran at, and
// the worst-case approximation bound of the returned schedule. Every
// Result carries one, adaptive or not.
type Quality = core.Quality

// PlanModel is the online latency cost model behind adaptive solving:
// every successful solve feeds it one (configuration -> latency)
// observation, and adaptive solves consult it at admission to pick the
// cheapest configuration predicted to meet their deadline. Observation
// never changes answers — attaching a model to a non-adaptive solve is
// result-transparent. A PlanModel is safe for concurrent use; share one
// across solves, pools and servers.
type PlanModel = plan.Model

// NewPlanModel returns an empty cost model. It predicts nothing until
// fed (by solves with WithPlanner, or by ImportPlanModel), and a cold
// model never degrades a request — adaptive solves keep their requested
// configuration until evidence says it will miss the deadline.
func NewPlanModel() *PlanModel { return plan.NewModel() }

// ExportPlanModel writes a byte-stable JSON snapshot of the model to w,
// shippable alongside the cache snapshot: import it on another replica
// (or the next process) to warm-start its planner.
func ExportPlanModel(m *PlanModel, w io.Writer) error { return m.Export(w) }

// ImportPlanModel merges a snapshot written by ExportPlanModel into m.
// Live cells win — the import only fills configurations m has no
// evidence for — so importing a stale snapshot never clobbers fresher
// observations.
func ImportPlanModel(m *PlanModel, r io.Reader) error { return m.Import(r) }

// ErrUnattainable is returned (wrapped) by adaptive solves whose
// quality floor no ladder rung can meet within the deadline; match it
// with errors.Is.
var ErrUnattainable = plan.ErrUnattainable

// WithPlanner attaches a latency cost model to the solve: the solve's
// observed latency feeds m, and with WithAdaptive the model is
// consulted at admission. Attaching a planner alone never changes the
// result.
func WithPlanner(m *PlanModel) Option {
	return func(o *core.Options) { o.Planner = m }
}

// WithAdaptive enables SLO-aware planning (it needs WithPlanner to have
// any effect): at admission the solve picks the cheapest configuration
// the model predicts to fit WithDeadline's budget, walking the
// degradation ladder — requested eps, coarser eps, then the family's
// bounded heuristics — and Result.Quality reports the rung that
// answered and its approximation bound. With a cold or unhelpful model
// the requested configuration runs unchanged.
func WithAdaptive() Option {
	return func(o *core.Options) { o.Adaptive = true }
}

// WithDeadline gives the solve a latency budget: the context is bounded
// by d, and an adaptive solve additionally plans its configuration to
// fit within d (with headroom). Zero means no deadline.
func WithDeadline(d time.Duration) Option {
	return func(o *core.Options) { o.Deadline = d }
}

// WithQualityFloor sets the worst acceptable approximation bound q
// (e.g. 1.5 for "within 50% of optimal"). An adaptive solve refuses
// with ErrUnattainable instead of degrading to any rung whose bound
// exceeds q; zero means no floor, i.e. best-effort degradation all the
// way down the ladder.
func WithQualityFloor(q float64) Option {
	return func(o *core.Options) { o.MinQuality = q }
}

func buildOptions(eps float64, opts []Option) core.Options {
	o := core.Options{Eps: eps}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// BatchOutcome pairs the result of one batched instance with its error;
// exactly one of the two fields is non-nil.
type BatchOutcome = batch.Outcome

// Pool solves batches of instances concurrently on a fixed number of
// workers. A Pool is stateless between calls and safe for concurrent
// use.
type Pool struct{ inner *batch.Pool }

// NewPool returns a pool with the given worker count; values <= 0 select
// GOMAXPROCS workers.
func NewPool(workers int) *Pool { return &Pool{inner: batch.NewPool(workers)} }

// Workers reports the pool's worker count.
func (p *Pool) Workers() int { return p.inner.Workers() }

// SolveEPTAS solves every instance with the EPTAS at accuracy eps,
// distributing the solves over the pool's workers. Outcomes are returned
// in input order, and each matches a sequential SolveEPTAS call on that
// instance.
func (p *Pool) SolveEPTAS(ins []*Instance, eps float64, opts ...Option) []BatchOutcome {
	return p.SolveEPTASContext(context.Background(), ins, eps, opts...)
}

// SolveEPTASContext is Pool.SolveEPTAS under a context shared by the
// whole batch: when it is canceled or expires, unfinished solves abort
// promptly (their Outcome.Err is ctx.Err()) while finished outcomes are
// kept, so a deadline caps the batch's wall-clock time.
func (p *Pool) SolveEPTASContext(ctx context.Context, ins []*Instance, eps float64, opts ...Option) []BatchOutcome {
	tasks := make([]batch.Task, len(ins))
	for i, in := range ins {
		tasks[i] = batch.Task{Instance: in, Options: buildOptions(eps, opts)}
	}
	return p.inner.SolveContext(ctx, tasks)
}

// SolveBatch solves every instance with the EPTAS at accuracy eps on a
// fresh GOMAXPROCS-sized pool. See Pool.SolveEPTAS.
func SolveBatch(ins []*Instance, eps float64, opts ...Option) []BatchOutcome {
	return NewPool(0).SolveEPTAS(ins, eps, opts...)
}

// SolveBatchContext is SolveBatch under a context; see
// Pool.SolveEPTASContext.
func SolveBatchContext(ctx context.Context, ins []*Instance, eps float64, opts ...Option) []BatchOutcome {
	return NewPool(0).SolveEPTASContext(ctx, ins, eps, opts...)
}

// SolveDasWiese schedules in with the configuration-program scheme with
// every bag treated as priority (no instance transformation) — the
// PTAS-style approach whose cost grows with the number of bags.
func SolveDasWiese(in *Instance, eps float64) (*Result, error) {
	return baselines.DasWieseConfig(in, eps)
}

// SolveDasWieseContext is SolveDasWiese under a context; a canceled or
// expired context aborts the solve and returns ctx.Err().
func SolveDasWieseContext(ctx context.Context, in *Instance, eps float64) (*Result, error) {
	return baselines.DasWieseConfigContext(ctx, in, eps)
}

// SolveBagLPT schedules in with the paper's bag-LPT heuristic.
func SolveBagLPT(in *Instance) (*Schedule, error) { return baselines.BagLPT(in) }

// SolveLPT schedules in with longest-processing-time list scheduling
// restricted to conflict-free machines.
func SolveLPT(in *Instance) (*Schedule, error) { return baselines.LPT(in) }

// SolveGreedy schedules in by least-loaded feasible list scheduling in
// input order.
func SolveGreedy(in *Instance) (*Schedule, error) { return baselines.Greedy(in) }

// SolveRoundRobin schedules in by static cyclic assignment (conflict-free
// but load-oblivious).
func SolveRoundRobin(in *Instance) (*Schedule, error) { return baselines.RoundRobin(in) }

// ExactResult is the outcome of SolveExact.
type ExactResult = baselines.ExactResult

// SolveExact computes an optimal schedule by branch and bound within the
// time limit (0 means 30s). Intended for small instances.
func SolveExact(in *Instance, timeLimit time.Duration) (*ExactResult, error) {
	return baselines.Exact(in, baselines.ExactOptions{TimeLimit: timeLimit})
}
