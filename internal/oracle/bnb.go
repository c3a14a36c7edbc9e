package oracle

import (
	"context"
	"fmt"

	"repro/internal/cfgmilp"
	"repro/internal/milp"
)

// BnB is the LP-simplex branch-and-bound backend: it materializes the
// MILP of the Built model and solves it with internal/milp. It handles
// both cfgmilp modes and arbitrary pattern spaces; its work is bounded
// by the deterministic Limits.MILP.MaxNodes budget.
type BnB struct{}

// Name returns "bnb".
func (BnB) Name() string { return "bnb" }

// Solve runs branch and bound on the model. The configuration program is
// a pure feasibility problem, so the first integer-feasible point wins
// (StopAtFirst is forced on).
func (BnB) Solve(ctx context.Context, b *cfgmilp.Built, lim Limits) (*cfgmilp.Plan, Stats, error) {
	st := Stats{Backend: "bnb"}
	model, err := b.MILP(ctx)
	if err != nil {
		return nil, st, err
	}
	opt := lim.MILP
	opt.StopAtFirst = true
	sol, err := milp.Solve(ctx, model, opt)
	if err != nil {
		// Cancellation (or an abort by the caller's progress hook): milp
		// discards the incumbent and the work counts.
		return nil, st, err
	}
	st.Nodes, st.Pivots = sol.Nodes, sol.Pivots
	switch sol.Status {
	case milp.StatusOptimal, milp.StatusFeasible:
		return b.Decode(sol), st, nil
	case milp.StatusInfeasible:
		return nil, st, fmt.Errorf("%w (branch and bound exhausted the search space)", ErrInfeasible)
	default:
		return nil, st, fmt.Errorf("%w (bnb stopped after %d nodes)", ErrLimit, sol.Nodes)
	}
}
