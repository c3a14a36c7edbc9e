// Package oracle is the pluggable integer-programming oracle layer of
// the EPTAS. The scheme itself only needs, per makespan guess, an exact
// answer to one question — "is the configuration program of this guess
// feasible, and if so, with which pattern multiplicities?" — where the
// integral dimension is a function of 1/eps alone (the Lenstra/Kannan
// role in the paper). Everything about *how* that question is answered is
// an implementation detail behind the Backend interface, which is the
// seam every alternative engine (branch-and-bound, the exact
// configuration DP, an external MILP solver, an n-fold IP solver) plugs
// into.
//
// Two backends are provided, and one policy that combines them:
//
//   - BnB: LP-simplex branch-and-bound over the materialized MILP
//     (internal/milp). Handles both cfgmilp modes, every problem family
//     and large pattern spaces; its per-guess work is bounded by a
//     deterministic node budget.
//
//   - CfgDP: an exact dynamic program over machine-configuration
//     multiplicities, solving the backend-neutral Demand block directly
//     in int64 fixed-point arithmetic (numeric.Fx) — no LP, no floating
//     point, no tolerances. Decomposed-mode models of the bag families
//     only.
//
//   - Default, what the zero Kind selects: CfgDP decides the guess, and
//     BnB decides it when CfgDP declines the model or exhausts its state
//     budget. Related-family and paper-mode models, which CfgDP declines
//     by shape, go to BnB directly. The MILP is materialized only when
//     BnB runs (see cfgmilp.Built.MILP).
//
// Pinning KindBnB or KindCfgDP runs that backend alone.
//
// # Exactness requirement
//
// Backend implementations inherit the exactness contract of the
// fixed-point numeric core (numeric.Fx): every quantity of the Demand
// block — slot counts, pattern heights, the small-job area — is an exact
// integer or an exact fixed-point grid value, and a backend must decide
// feasibility of those exact constraints. A backend may run on any
// internal representation (BnB works on the float64 LP whose
// grid-derived coefficients are exact lifts), but it must not introduce
// approximation of its own: an accepted plan must satisfy the integer
// demand rows exactly, because the placer's repair lemmas budget for
// rounding error already spent upstream, not for oracle slack.
package oracle

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cfgmilp"
	"repro/internal/milp"
	"repro/internal/scratch"
)

// Kind names an oracle policy: the default policy (the zero value) or
// one pinned backend.
type Kind int

const (
	// KindDefault is the default policy: cfgdp first, bnb when cfgdp
	// declines the model or exhausts its budget (see Default).
	KindDefault Kind = iota
	// KindBnB pins the LP-simplex branch-and-bound backend.
	KindBnB
	// KindCfgDP pins the exact configuration dynamic program.
	KindCfgDP
)

// String returns the CLI name of a pinned kind, and "default" for the
// default policy.
func (k Kind) String() string {
	switch k {
	case KindDefault:
		return "default"
	case KindBnB:
		return "bnb"
	case KindCfgDP:
		return "cfgdp"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind parses a CLI backend name. Only the two pins have names: a
// caller that pins nothing keeps the zero Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "bnb":
		return KindBnB, nil
	case "cfgdp":
		return KindCfgDP, nil
	default:
		return 0, fmt.Errorf("oracle: unknown backend %q (want bnb or cfgdp)", s)
	}
}

// Selection picks the oracle policy for one solve; the zero value
// selects the default policy. It is the type of core.Options.Oracle,
// kept as a struct because the repository benchmark (perfbench) builds
// its options with a Selection literal.
type Selection struct {
	// Backend is the policy to dispatch to.
	Backend Kind
}

// Limits carries the per-solve resource budgets. Every budget is a
// deterministic work count (nodes, DP states), so no outcome depends on
// machine load.
type Limits struct {
	// MILP tunes the branch-and-bound backend; StopAtFirst is forced on
	// by the bnb backend (the configuration program is a feasibility
	// problem). MaxNodes must be resolved by the caller (the pipeline
	// applies its own default).
	MILP milp.Options
	// MaxStates bounds the configuration DP's state expansions. Zero
	// derives it from MILP.MaxNodes (256 states per node, so short ladder
	// budgets shorten the DP as they shorten bnb), or uses
	// DefaultMaxStates when MaxNodes is zero too.
	MaxStates int64
	// Arena, when non-nil, supplies the solve's scratch buffers (the
	// configuration DP's residual vectors and demand tables) so
	// repeated solves on one pipeline run stop allocating. The arena is
	// single-goroutine: one solve at a time may use it.
	Arena *scratch.Arena
}

// DefaultMaxStates is the DP state budget when Limits.MaxStates is zero.
// One state is a few dozen integer operations, so the default bounds a
// cfgdp solve to a few milliseconds — the same order as the bnb node
// budget it rides alongside.
const DefaultMaxStates int64 = 1 << 19

// Stats is the per-solve accounting of one oracle call.
type Stats struct {
	// Backend is the backend that produced the result.
	Backend string
	// Nodes and Pivots are the branch-and-bound node and simplex-pivot
	// counts.
	Nodes  int
	Pivots int
	// States is the DP state count. Under the default policy a guess
	// that bnb decided after cfgdp stopped on its budget reports both
	// backends' work: Backend is "bnb", States is cfgdp's.
	States int64
}

// ErrLimit reports that the backend exhausted its deterministic work
// budget (nodes or DP states) without deciding feasibility. The pipeline
// treats it like a pattern-space explosion: the guess is rejected and
// the priority-cap ladder may retry with a smaller cap.
var ErrLimit = errors.New("oracle: work budget exhausted")

// ErrInfeasible reports that the configuration program of this guess has
// no integer solution — the guess is below the transformed optimum.
var ErrInfeasible = errors.New("oracle: configuration program infeasible")

// ErrUnsupported reports that the backend cannot solve this model shape
// (the configuration DP only handles decomposed-mode models of the bag
// families). The default policy hands such models to bnb; a solve pinned
// to the declining backend rejects the guess and degrades to its
// family's fallback schedule.
var ErrUnsupported = errors.New("oracle: model not supported by this backend")

// Backend is one oracle engine. Solve decides the configuration program
// in b and returns its plan: a nil error means feasible, with the plan
// realizing the demand block; otherwise the error wraps ErrInfeasible,
// ErrLimit or ErrUnsupported (or the context's error on cancellation).
// Implementations must be stateless and safe for concurrent use —
// speculative guess evaluation runs several solves at once — and
// deterministic: for a fixed model and limits the returned plan and
// stats must not depend on wall-clock or machine load.
type Backend interface {
	Name() string
	Solve(ctx context.Context, b *cfgmilp.Built, lim Limits) (*cfgmilp.Plan, Stats, error)
}

// For returns the backend of a kind; an unknown kind selects the
// default policy.
func For(k Kind) Backend {
	switch k {
	case KindBnB:
		return BnB{}
	case KindCfgDP:
		return CfgDP{}
	default:
		return Default{}
	}
}

// Default is the default oracle policy. The configuration DP decides a
// guess whenever it can: it needs no LP, so the MILP is never
// materialized for the guesses it decides. When it declines the model
// (ErrUnsupported) or stops on its state budget (ErrLimit),
// branch-and-bound decides the same model under the same limits, and
// the returned Stats name bnb while still counting the DP's states.
// Related-family and paper-mode models, which the DP declines by shape,
// go to branch-and-bound directly. Its other outcomes — a plan,
// ErrInfeasible, a context error — are the DP's own.
type Default struct{}

// Name returns "default".
func (Default) Name() string { return "default" }

// Solve decides the model with cfgdp, falling back to bnb.
func (Default) Solve(ctx context.Context, b *cfgmilp.Built, lim Limits) (*cfgmilp.Plan, Stats, error) {
	if b.Related != nil || b.Mode != cfgmilp.ModeDecomposed {
		return BnB{}.Solve(ctx, b, lim)
	}
	plan, dp, err := CfgDP{}.Solve(ctx, b, lim)
	if !errors.Is(err, ErrLimit) && !errors.Is(err, ErrUnsupported) {
		return plan, dp, err
	}
	plan, st, err := BnB{}.Solve(ctx, b, lim)
	st.States = dp.States
	return plan, st, err
}
