package oracle

import (
	"context"
	"fmt"

	"repro/internal/cfgmilp"
	"repro/internal/milp"
)

// BnB is the LP-simplex branch-and-bound backend: it solves the
// materialized MILP of the Built model with internal/milp, exactly as the
// pipeline did before the oracle layer existed. It handles both cfgmilp
// modes and arbitrary pattern spaces; its work is bounded by the
// deterministic Limits.MILP.MaxNodes budget (plus a caller-set
// wall-clock TimeLimit, the one load-dependent limit, which it reports
// as ErrTimeLimit).
type BnB struct {
	// tick, when set by the portfolio, is the race clock: it receives the
	// cumulative logical work after every expanded node and aborts the
	// solve by returning a non-nil error.
	tick tickFunc
}

// Name returns "bnb".
func (BnB) Name() string { return "bnb" }

// Solve runs branch and bound on the model. The configuration program is
// a pure feasibility problem, so the first integer-feasible point wins
// (StopAtFirst is forced on).
func (bk BnB) Solve(ctx context.Context, b *cfgmilp.Built, lim Limits) (*cfgmilp.Plan, Stats, error) {
	st := Stats{Backend: "bnb", Raced: 1}
	opt := lim.MILP
	opt.StopAtFirst = true
	opt.Workers = lim.Workers
	st.Workers = lim.Workers
	if st.Workers < 1 {
		st.Workers = 1
	}
	var seenNodes, seenPivots int
	if bk.tick != nil {
		// Any definitive outcome costs at least one node, so the node
		// surcharge is a sound lower bound on the final logical time:
		// when a sub-node-cost finisher has already posted, abort before
		// paying for any solver setup.
		if err := bk.tick(bnbLogical(1, 0)); err != nil {
			return nil, st, err
		}
		prev := opt.Progress
		opt.Progress = func(nodes, pivots int) error {
			seenNodes, seenPivots = nodes, pivots
			if prev != nil {
				if err := prev(nodes, pivots); err != nil {
					return err
				}
			}
			return bk.tick(bnbLogical(nodes, pivots))
		}
	}
	sol, err := milp.Solve(ctx, b.Model, opt)
	if err != nil {
		// Cancellation or a race abort: milp discards the incumbent and
		// the work counts, so report the last counts the progress hook
		// saw.
		st.Nodes, st.Pivots = seenNodes, seenPivots
		return nil, st, err
	}
	st.Nodes, st.Pivots = sol.Nodes, sol.Pivots
	st.Steals, st.SpecUsed = int64(sol.Steals), int64(sol.SpecUsed)
	switch sol.Status {
	case milp.StatusOptimal, milp.StatusFeasible:
		return b.Decode(sol), st, nil
	case milp.StatusInfeasible:
		return nil, st, fmt.Errorf("%w (branch and bound exhausted the search space)", ErrInfeasible)
	default:
		if sol.TimedOut {
			return nil, st, fmt.Errorf("%w (bnb stopped after %d nodes, %v)", ErrTimeLimit, sol.Nodes, opt.TimeLimit)
		}
		return nil, st, fmt.Errorf("%w (bnb stopped after %d nodes)", ErrLimit, sol.Nodes)
	}
}
