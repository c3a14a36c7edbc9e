// Package pipeline implements the per-guess pipeline of the EPTAS as a
// staged engine: for one makespan guess the instance is scaled and rounded
// (Section 2 of the paper), classified (Lemma 1, Definition 2),
// transformed (Section 2.2), its pattern space enumerated (Definition 3),
// the configuration program decided by an oracle backend (Section 3, via
// internal/oracle), all jobs placed (Sections 3.1 and 4) and the solution
// lifted back to the original instance (Lemmas 3 and 4).
//
// Each step is a Stage with its own wall-clock accounting, run in a fixed
// order by an Engine. The Engine additionally memoizes outcomes across
// guesses: geometric rounding to powers of (1+eps) collapses adjacent
// makespan guesses into rounding equivalence classes — two guesses whose
// scaled-rounded instances have the same per-job exponents are the *same*
// instance from the Classify stage onward, so the second guess can reuse
// the committed accept/reject outcome (its statistics and final machine
// assignment) without re-running anything. This is result-transparent: the decision and the produced
// schedule are deterministic functions of the signature.
package pipeline

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cfgmilp"
	"repro/internal/classify"
	"repro/internal/family"
	"repro/internal/memo"
	"repro/internal/milp"
	"repro/internal/oracle"
	"repro/internal/pattern"
	"repro/internal/placer"
	"repro/internal/round"
	"repro/internal/sched"
	"repro/internal/scratch"
	"repro/internal/transform"
)

// Config carries the per-solve knobs the pipeline needs. It is constant
// over all guesses of one solve, which is what makes the cross-guess memo
// sound: the signature only has to capture what varies per guess.
type Config struct {
	// Eps is the accuracy parameter in (0, 1).
	Eps float64
	// Family is the problem family the pipeline solves; nil selects
	// family.Bags (the pre-seam behaviour, bit for bit). It picks the
	// stage sequence (family.Shape) and contributes the family half of
	// the memo aux hash, so a shared cache never aliases entries
	// between families.
	Family family.Family
	// Mode selects the MILP flavour.
	Mode cfgmilp.Mode
	// PatternLimit bounds pattern enumeration (zero means
	// pattern.DefaultLimit).
	PatternLimit int
	// MILP tunes the branch-and-bound solver; StopAtFirst is forced on.
	MILP milp.Options
	// Oracle selects the policy the SolveOracle stage dispatches to: the
	// zero value is the default policy (cfgdp, then bnb), KindBnB and
	// KindCfgDP pin one backend.
	Oracle oracle.Kind
	// AllPriority disables priority-bag selection and the instance
	// transformation (Das–Wiese mode).
	AllPriority bool
	// BPrimeOverride caps the Definition 2 priority constant b'; zero
	// enables the degradation ladder.
	BPrimeOverride int
	// Cache, when non-nil, is a shared memo the engine stores pipeline
	// outcomes in (and serves hits from) instead of a private per-solve
	// one. The memo key extends the per-guess signature with a hash of
	// this Config and the instance's bag vector, so one cache can serve
	// many solves, instances and option sets concurrently — the serving
	// layer shares a single bounded cache across all requests. Results
	// are bit-identical with any cache configuration; only repeated work
	// changes.
	Cache *memo.Cache
	// DisableMemo turns off cross-guess memoization entirely, including
	// a shared Cache (used by the differential tests and ablation
	// experiments; results are identical either way, only repeated work
	// changes).
	DisableMemo bool
	// Float64Ref runs the stages downstream of Scale on the retained
	// float64 reference arithmetic (the pre-fixed-point seed path)
	// instead of the exact int64 fixed-point representation. Results are
	// bit-for-bit identical; the differential tests assert it.
	Float64Ref bool
}

// State is the mutable blackboard one pipeline execution threads through
// its stages. Earlier stages fill the fields later stages read.
type State struct {
	// In is the original instance (never modified).
	In *sched.Instance
	// Guess is the makespan guess.
	Guess float64
	// Cfg is the engine's configuration.
	Cfg Config
	// BPrime is the priority cap of the current ladder rung (0 =
	// theoretical constant).
	BPrime int
	// NodeBudget bounds MILP nodes on non-final ladder rungs (0 = use
	// Cfg.MILP.MaxNodes).
	NodeBudget int
	// Arena is the run's scratch arena, leased from the engine's pool for
	// the duration of one pipeline execution (nil when the caller runs
	// stages by hand). Single-goroutine; stages hand it to the oracle and
	// the placer, and nothing retained in the Result may alias its
	// memory.
	Arena *scratch.Arena

	// Scaled is In scaled by 1/Guess with sizes rounded up to powers of
	// (1+eps); Exps holds the geometric exponent per job.
	Scaled *sched.Instance
	Exps   []int
	// Info is the classification of Scaled.
	Info *classify.Info
	// RelInfo and RelSpace are the related-family counterparts of Info
	// and Space (family.ShapeRelated only).
	RelInfo  *classify.RelInfo
	RelSpace *pattern.RelSpace
	// Transformed is the Section 2.2 transformation (nil in AllPriority
	// mode); TInst, View and Prio are the instance, its exact numeric
	// view and the priority flags the downstream stages work on either
	// way.
	Transformed *transform.Transformed
	TInst       *sched.Instance
	View        *classify.View
	Prio        []bool
	// Space is the enumerated pattern space.
	Space *pattern.Space
	// IntegerVars is the MILP's integral dimension; OracleStats accounts
	// the oracle solve (MILPNodes mirrors its node count for the
	// aggregate statistics); Plan is the decoded solution.
	IntegerVars int
	MILPNodes   int
	OracleStats oracle.Stats
	Plan        *cfgmilp.Plan
	// Placed is the schedule of the transformed (scaled) instance.
	Placed     *sched.Schedule
	PlaceStats placer.Stats
	// LiftStats reports lift work; Final is the feasible schedule of In.
	LiftStats transform.LiftStats
	Final     *sched.Schedule
}

// resetRung clears every artifact the ladder recomputes per priority cap,
// keeping the guess-level Scale output.
func (st *State) resetRung() {
	st.Info = nil
	st.RelInfo = nil
	st.RelSpace = nil
	st.Transformed = nil
	st.TInst = nil
	st.View = nil
	st.Prio = nil
	st.Space = nil
	st.IntegerVars = 0
	st.MILPNodes = 0
	st.OracleStats = oracle.Stats{}
	st.Plan = nil
	st.Placed = nil
	st.PlaceStats = placer.Stats{}
	st.LiftStats = transform.LiftStats{}
	st.Final = nil
}

// Stage is one step of the per-guess pipeline. Run reads its inputs from
// st and writes its outputs back; an error rejects the current attempt
// (ladder rung). Stages must be stateless and safe for concurrent use —
// speculative guess evaluation runs several pipelines at once.
type Stage interface {
	Name() string
	Run(ctx context.Context, st *State) error
}

// The canonical stage sequence. Scale runs once per guess (its output
// determines the memo signature); the remaining stages run once per
// ladder rung. Every family shape uses the same stage names in the
// same order — Stats maps and reports stay comparable across families —
// but the related shape binds its own implementations.
var (
	stageScale       Stage = scaleStage{}
	rungStages             = []Stage{classifyStage{}, transformStage{}, enumerateStage{}, solveOracleStage{}, placeStage{}, liftStage{}}
	relatedRungStage       = []Stage{relClassifyStage{}, relTransformStage{}, relEnumerateStage{}, relSolveOracleStage{}, relPlaceStage{}, relLiftStage{}}
	allStageNames          = []string{"Scale", "Classify", "Transform", "Enumerate", "SolveOracle", "Place", "Lift"}
)

// rungStagesFor selects the per-rung stage sequence of a family shape.
func rungStagesFor(shape family.Shape) []Stage {
	if shape == family.ShapeRelated {
		return relatedRungStage
	}
	return rungStages
}

// StageNames lists the pipeline stages in execution order; Stats maps and
// reports are keyed by these names.
func StageNames() []string {
	return append([]string(nil), allStageNames...)
}

type scaleStage struct{}

func (scaleStage) Name() string { return "Scale" }
func (scaleStage) Run(_ context.Context, st *State) error {
	st.Scaled, st.Exps = round.ScaleRound(st.In, st.Guess, st.Cfg.Eps)
	return nil
}

type classifyStage struct{}

func (classifyStage) Name() string { return "Classify" }
func (classifyStage) Run(_ context.Context, st *State) error {
	info, err := classify.Classify(st.Scaled, st.Cfg.Eps, classify.Options{
		AllPriority:    st.Cfg.AllPriority,
		BPrimeOverride: st.BPrime,
	})
	if err != nil {
		return err
	}
	st.Info = info
	return nil
}

type transformStage struct{}

func (transformStage) Name() string { return "Transform" }
func (transformStage) Run(_ context.Context, st *State) error {
	if st.Cfg.AllPriority {
		// Das–Wiese mode: every bag is priority, nothing to transform.
		st.TInst = st.Scaled
		st.Prio = st.Info.Priority
		view, err := st.Info.ViewOf(st.Scaled)
		if err != nil {
			return err
		}
		st.View = view
		return nil
	}
	st.Transformed = transform.Apply(st.Scaled, st.Info)
	st.TInst = st.Transformed.Inst
	st.View = st.Transformed.View
	st.Prio = st.Transformed.Priority
	return nil
}

type enumerateStage struct{}

func (enumerateStage) Name() string { return "Enumerate" }
func (enumerateStage) Run(ctx context.Context, st *State) error {
	sp, err := pattern.Enumerate(ctx, st.TInst, st.View, st.Prio, pattern.Options{
		Limit:      st.Cfg.PatternLimit,
		Float64Ref: st.Cfg.Float64Ref,
	})
	if err != nil {
		return err
	}
	st.Space = sp
	return nil
}

type solveOracleStage struct{}

func (solveOracleStage) Name() string { return "SolveOracle" }
func (solveOracleStage) Run(ctx context.Context, st *State) error {
	built, err := cfgmilp.Build(ctx, st.TInst, st.View, st.Prio, st.Space, cfgmilp.BuildOptions{
		Mode:       st.Cfg.Mode,
		Float64Ref: st.Cfg.Float64Ref,
	})
	if err != nil {
		return err
	}
	st.IntegerVars = built.IntegerVars
	return st.solveBuilt(ctx, built)
}

// oracleLimits resolves the per-guess oracle budgets from the config
// and the current ladder rung's node budget. Shared by every family
// shape so a family cannot silently run under different limits.
//
// Every budget is a work count, so a guess's outcome is a function of
// its memo key alone, however loaded the machine. Callers bound a
// solve's time with their context's deadline, and a cancellation is
// never memoized.
func (st *State) oracleLimits() oracle.Limits {
	lim := oracle.Limits{MILP: st.Cfg.MILP}
	if lim.MILP.MaxNodes <= 0 {
		// Feasibility models are usually solved at the root (by the
		// rounding heuristic) or after a few dives; a tight default
		// keeps rejected guesses cheap. The DP state budget scales
		// with it (see oracle.Limits).
		lim.MILP.MaxNodes = 500
	}
	if st.NodeBudget > 0 && st.NodeBudget < lim.MILP.MaxNodes {
		lim.MILP.MaxNodes = st.NodeBudget
	}
	lim.Arena = st.Arena
	return lim
}

// solveBuilt dispatches a constructed model to the configured oracle
// backend and records the outcome on the state.
func (st *State) solveBuilt(ctx context.Context, built *cfgmilp.Built) error {
	plan, ostats, err := oracle.For(st.Cfg.Oracle).Solve(ctx, built, st.oracleLimits())
	st.OracleStats = ostats
	st.MILPNodes = ostats.Nodes
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return fmt.Errorf("eptas: oracle at guess %g: %w", st.Guess, err)
	}
	st.Plan = plan
	return nil
}

type placeStage struct{}

func (placeStage) Name() string { return "Place" }
func (placeStage) Run(_ context.Context, st *State) error {
	placed, pstats, err := placer.Place(placer.Input{
		Inst:       st.TInst,
		View:       st.View,
		Prio:       st.Prio,
		Space:      st.Space,
		Plan:       st.Plan,
		Float64Ref: st.Cfg.Float64Ref,
		Arena:      st.Arena,
	})
	if err != nil {
		return err
	}
	st.Placed = placed
	st.PlaceStats = pstats
	return nil
}

type liftStage struct{}

func (liftStage) Name() string { return "Lift" }
func (liftStage) Run(_ context.Context, st *State) error {
	var machine []int
	if st.Transformed != nil {
		lifted, ls, err := st.Transformed.Lift(st.Placed)
		if err != nil {
			return err
		}
		machine = lifted.Machine
		st.LiftStats = ls
	} else {
		machine = st.Placed.Machine
	}
	final := &sched.Schedule{Inst: st.In, Machine: append([]int(nil), machine...)}
	if err := final.Validate(); err != nil {
		return fmt.Errorf("eptas: lifted schedule invalid at guess %g: %w", st.Guess, err)
	}
	st.Final = final
	return nil
}

// --- related-family stages (family.ShapeRelated) ---
//
// Same stage names, related implementations: speed-class
// classification, per-class anonymous configuration enumeration, the
// BuildRelated feasibility program through the same oracle seam, and
// the capacity-greedy placement. There is no instance transformation
// and no priority-cap ladder (related machines have no bags), so
// Transform is a pass-through and the engine runs a single rung.

type relClassifyStage struct{}

func (relClassifyStage) Name() string { return "Classify" }
func (relClassifyStage) Run(_ context.Context, st *State) error {
	info, err := classify.Related(st.Scaled, st.Cfg.Eps)
	if err != nil {
		return err
	}
	st.RelInfo = info
	return nil
}

type relTransformStage struct{}

func (relTransformStage) Name() string { return "Transform" }
func (relTransformStage) Run(_ context.Context, st *State) error {
	st.TInst = st.Scaled
	return nil
}

type relEnumerateStage struct{}

func (relEnumerateStage) Name() string { return "Enumerate" }
func (relEnumerateStage) Run(ctx context.Context, st *State) error {
	sp, err := pattern.EnumerateRelated(ctx, st.RelInfo, pattern.Options{Limit: st.Cfg.PatternLimit})
	if err != nil {
		return err
	}
	st.RelSpace = sp
	return nil
}

type relSolveOracleStage struct{}

func (relSolveOracleStage) Name() string { return "SolveOracle" }
func (relSolveOracleStage) Run(ctx context.Context, st *State) error {
	built, err := cfgmilp.BuildRelated(ctx, st.TInst, st.RelInfo, st.RelSpace)
	if err != nil {
		return err
	}
	st.IntegerVars = built.IntegerVars
	return st.solveBuilt(ctx, built)
}

type relPlaceStage struct{}

func (relPlaceStage) Name() string { return "Place" }
func (relPlaceStage) Run(_ context.Context, st *State) error {
	placed, pstats, err := placer.PlaceRelated(placer.RelatedInput{
		Inst:  st.TInst,
		Info:  st.RelInfo,
		Space: st.RelSpace,
		Plan:  st.Plan,
	})
	if err != nil {
		return err
	}
	st.Placed = placed
	st.PlaceStats = pstats
	return nil
}

type relLiftStage struct{}

func (relLiftStage) Name() string { return "Lift" }
func (relLiftStage) Run(_ context.Context, st *State) error {
	// No transformation to undo: the placed assignment of the scaled
	// instance is position-compatible with the pipeline input (same
	// jobs, same machines), only the sizes differ.
	final := &sched.Schedule{Inst: st.In, Machine: append([]int(nil), st.Placed.Machine...)}
	if err := final.Validate(); err != nil {
		return fmt.Errorf("eptas: related schedule invalid at guess %g: %w", st.Guess, err)
	}
	st.Final = final
	return nil
}

// RetryWithSmallerCap reports whether a pipeline failure may be cured by
// a smaller priority cap: pattern-space explosions and oracle work-budget
// limits both shrink with fewer priority bags. Genuine infeasibility is not retried — reducing the cap
// relaxes the program further, and the binary search treats the guess as
// too low either way.
func RetryWithSmallerCap(err error) bool {
	if _, tooMany := err.(pattern.ErrTooManyPatterns); tooMany {
		return true
	}
	return errors.Is(err, oracle.ErrLimit)
}

// ladderNodeBudget bounds branch-and-bound nodes on non-final ladder
// attempts. Feasibility models are usually solved at the root or after a
// few dives, so this is generous for a rung that is going to succeed,
// while keeping a rung that would blow up cheap to abandon. Unlike a
// wall-clock budget it is load-independent, at the cost of a larger
// worst case: a rung whose individual nodes are slow runs until the
// node budget (or the caller's deadline) stops it.
const ladderNodeBudget = 150
