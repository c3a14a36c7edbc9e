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
// Three backends are provided:
//
//   - BnB: LP-simplex branch-and-bound over the materialized MILP
//     (internal/milp). Handles both cfgmilp modes and large pattern
//     spaces; its per-guess work is bounded by a deterministic node
//     budget.
//
//   - CfgDP: an exact dynamic program over machine-configuration
//     multiplicities, solving the backend-neutral Demand block directly
//     in int64 fixed-point arithmetic (numeric.Fx) — no LP, no floating
//     point, no tolerances. Strongest when the pattern count is small;
//     decomposed mode only.
//
//   - Portfolio: races any set of backends concurrently and returns the
//     first definitive outcome, adjudicated in *logical time* so results
//     stay reproducible (see portfolio.go).
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
	"time"

	"repro/internal/cfgmilp"
	"repro/internal/milp"
	"repro/internal/scratch"
)

// Kind names a backend implementation.
type Kind int

const (
	// KindBnB is the LP-simplex branch-and-bound backend (the default).
	KindBnB Kind = iota
	// KindCfgDP is the exact configuration dynamic program.
	KindCfgDP
	// KindPortfolio races a set of backends (DefaultPortfolio unless
	// overridden) with deterministic logical-time adjudication.
	KindPortfolio
)

// String returns the CLI name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBnB:
		return "bnb"
	case KindCfgDP:
		return "cfgdp"
	case KindPortfolio:
		return "portfolio"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind parses a CLI backend name.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "bnb":
		return KindBnB, nil
	case "cfgdp":
		return KindCfgDP, nil
	case "portfolio":
		return KindPortfolio, nil
	default:
		return 0, fmt.Errorf("oracle: unknown backend %q (want bnb, cfgdp or portfolio)", s)
	}
}

// Selection picks the backend composition for one solve. The zero value
// selects the branch-and-bound backend, preserving the pre-oracle-layer
// behaviour bit for bit.
type Selection struct {
	// Backend is the backend kind to dispatch to.
	Backend Kind
	// Portfolio lists the raced backends when Backend is KindPortfolio;
	// nil selects DefaultPortfolio. Order matters: it is the
	// deterministic tie-break of the race.
	Portfolio []Kind
}

// DefaultPortfolio is the raced set when none is configured: the exact
// DP first (it wins logical-time ties, and on small pattern spaces it is
// the cheap engine), branch-and-bound second (the general fallback).
func DefaultPortfolio() []Kind { return []Kind{KindCfgDP, KindBnB} }

// Limits carries the per-solve resource budgets. All budgets are
// deterministic work counts (nodes, DP states) except a caller-set MILP
// wall-clock limit (milp.Options.TimeLimit, off by default), the one
// load-dependent limit.
type Limits struct {
	// MILP tunes the branch-and-bound backend; StopAtFirst is forced on
	// by the bnb backend (the configuration program is a feasibility
	// problem). MaxNodes must be resolved by the caller (the pipeline
	// applies its own default); a zero TimeLimit means none.
	MILP milp.Options
	// MaxStates bounds the configuration DP's state expansions. Zero
	// means DefaultMaxStates.
	MaxStates int64
	// Arena, when non-nil, supplies the solve's scratch buffers (the
	// configuration DP's residual vectors and demand tables) so
	// repeated solves on one pipeline run stop allocating. The arena is
	// single-goroutine: under the portfolio only the first raced
	// backend may allocate from it — concurrent racers must not share
	// it, so the portfolio clears it for all but the first backend.
	Arena *scratch.Arena
}

// DefaultMaxStates is the DP state budget when Limits.MaxStates is zero.
// One state is a few dozen integer operations, so the default bounds a
// cfgdp solve to a few milliseconds — the same order as the bnb node
// budget it rides alongside.
const DefaultMaxStates int64 = 1 << 19

// Stats is the per-solve accounting of one oracle call.
type Stats struct {
	// Backend is the backend that produced the result — the race winner
	// under the portfolio.
	Backend string
	// Nodes and Pivots are the winner's branch-and-bound node and
	// simplex-pivot counts (bnb only).
	Nodes  int
	Pivots int
	// States is the winner's DP state count (cfgdp only).
	States int64
	// Raced is the number of backends that started (1 unless portfolio).
	Raced int
	// LoserNodes, LoserStates and LoserTime account the work burned by
	// outraced backends before cancellation. Unlike every field above
	// they are load-dependent (how far a loser got before observing the
	// winner's logical deadline depends on scheduling), so they are
	// excluded from the deterministic decision projection of the solver
	// statistics.
	LoserNodes  int
	LoserStates int64
	LoserTime   time.Duration
}

// ErrLimit reports that the backend exhausted its deterministic work
// budget (nodes or DP states) without deciding feasibility. The pipeline
// treats it like a pattern-space explosion: the guess is rejected and
// the priority-cap ladder may retry with a smaller cap.
var ErrLimit = errors.New("oracle: work budget exhausted")

// ErrTimeLimit reports that the branch-and-bound search stopped on a
// caller-set wall-clock limit (milp.Options.TimeLimit) before deciding
// feasibility. The ladder retries it like ErrLimit, but unlike every
// other outcome it depends on machine load, not only on the model, so it
// must never be memoized or shipped to another replica.
var ErrTimeLimit = errors.New("oracle: wall-clock time limit reached")

// ErrInfeasible reports that the configuration program of this guess has
// no integer solution — the guess is below the transformed optimum.
var ErrInfeasible = errors.New("oracle: configuration program infeasible")

// ErrUnsupported reports that the backend cannot solve this model shape
// (the configuration DP only handles decomposed-mode models). Under the
// portfolio an unsupported backend drops out of the race silently.
var ErrUnsupported = errors.New("oracle: model not supported by this backend")

// Backend is one oracle engine. Solve decides the configuration program
// in b and returns its plan: a nil error means feasible, with the plan
// realizing the demand block; otherwise the error wraps ErrInfeasible,
// ErrLimit, ErrTimeLimit or ErrUnsupported (or the context's error on
// cancellation).
// Implementations must be stateless and safe for concurrent use —
// speculative guess evaluation and the portfolio run several solves at
// once — and deterministic: for a fixed model and limits the returned
// plan and stats must not depend on wall-clock or machine load (the
// caller-set MILP TimeLimit is the documented exception, reported as
// ErrTimeLimit).
type Backend interface {
	Name() string
	Solve(ctx context.Context, b *cfgmilp.Built, lim Limits) (*cfgmilp.Plan, Stats, error)
}

// For returns the backend for a selection.
func For(sel Selection) Backend {
	switch sel.Backend {
	case KindCfgDP:
		return CfgDP{}
	case KindPortfolio:
		kinds := sel.Portfolio
		if len(kinds) == 0 {
			kinds = DefaultPortfolio()
		}
		var backends []Backend
		for _, k := range kinds {
			if k == KindPortfolio {
				continue // a portfolio cannot nest itself
			}
			backends = append(backends, For(Selection{Backend: k}))
		}
		if len(backends) == 0 {
			return BnB{}
		}
		return Portfolio{Backends: backends}
	default:
		return BnB{}
	}
}
