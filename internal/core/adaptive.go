// SLO-aware adaptive solving: the admission-time planning hook that
// wraps every solve and re-solve.
//
// When Options.Adaptive is set (and a Planner attached), the solve is
// preceded by one plan.Decide call: the planner walks the degradation
// ladder from the requested eps through coarser rungs down to the
// heuristics and rewrites the options to the cheapest configuration
// predicted to meet Options.Deadline under Options.MinQuality,
// refusing with plan.ErrUnattainable when the floor cannot be met.
// Whatever rung ran, Result.Quality reports what the response actually
// guarantees.
//
// When Adaptive is off nothing about the solve changes — no option is
// rewritten, no context is derived (unless a Deadline is set), and
// observing latencies into an attached Planner never feeds back into
// the answer — so adaptive-off runs stay bit-identical to a build
// without this file (plan_diff_test.go enforces it).
package core

import (
	"context"
	"time"

	"repro/internal/plan"
	"repro/internal/sched"
)

// Quality reports what the solve actually delivered: which rung of the
// degradation ladder answered and the approximation bound it
// guarantees. It is populated on every Result, adaptive or not.
type Quality struct {
	// Rung names what produced the schedule: plan.RungEPTAS for a full
	// search, plan.RungLPT / plan.RungGreedy for heuristic answers
	// (planned or via the search's fallback guard), plan.RungRepair for
	// the placement-repair fast path.
	Rung string
	// EpsUsed is the accuracy the search ran at (0 for heuristic rungs).
	// Under adaptive solving it may be coarser than the requested eps.
	EpsUsed float64
	// BackendUsed is the oracle backend that decided the last accepted
	// guess ("" when no search ran).
	BackendUsed string
	// Bound is the worst-case approximation guarantee of the answer:
	// 1+eps for eptas and repair rungs, the family's heuristic bound
	// otherwise, and exactly 1 when the answer is provably optimal
	// (makespan at the lower bound).
	Bound float64
	// Degraded reports that the answer is coarser than the request —
	// either the planner chose a lower rung or the search fell back to
	// the heuristic upper bound.
	Degraded bool
	// PlannerTime is the admission-time planning overhead (0 when
	// adaptive was off).
	PlannerTime time.Duration
	// Predicted is the planner's latency estimate for the chosen
	// configuration (0 when unknown or adaptive was off); compare with
	// the measured solve time for predicted-vs-actual telemetry.
	Predicted time.Duration
	// ModelVersion is the cost-model version the decision was keyed by.
	ModelVersion uint64
	// BestEffort reports that no configuration was predicted to meet
	// the deadline and, absent a quality floor, the planner answered
	// with the cheapest-predicted rung anyway.
	BestEffort bool
}

// runAdaptive wraps a solve body with the admission-time planner,
// deadline enforcement, quality sealing and cost-model observation.
// body receives the (possibly rewritten) options and the
// (possibly deadline-bounded) context.
func runAdaptive(ctx context.Context, in *sched.Instance, opt Options,
	body func(context.Context, Options) (*Result, error)) (*Result, error) {

	start := time.Now()
	dec, planTime, err := planAdmission(ctx, in, &opt)
	if err != nil {
		return nil, err
	}
	if opt.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
	}
	res, err := body(ctx, opt)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	if dec != nil {
		q := &res.Quality
		q.Degraded = q.Degraded || dec.Degraded
		q.PlannerTime = planTime
		q.Predicted = dec.Predicted
		q.ModelVersion = dec.ModelVersion
		q.BestEffort = dec.BestEffort
	}
	observeSolve(opt, in, res, elapsed)
	return res, nil
}

// planAdmission runs the planner when opt asks for adaptive solving,
// rewriting opt in place to the chosen rung: eps for an eptas rung,
// Heuristic for a heuristic one; the oracle policy stays the caller's.
// It reports the decision (nil when adaptive is off) and the planning
// overhead.
func planAdmission(ctx context.Context, in *sched.Instance, opt *Options) (*plan.Decision, time.Duration, error) {
	if !opt.Adaptive || opt.Planner == nil {
		return nil, 0, nil
	}
	start := time.Now()
	budget := opt.Deadline
	if budget == 0 {
		if dl, ok := ctx.Deadline(); ok {
			budget = time.Until(dl)
		}
	}
	dec, err := opt.Planner.Decide(plan.Request{
		Family:     familyName(*opt),
		Jobs:       len(in.Jobs),
		Machines:   in.Machines,
		Eps:        opt.Eps,
		Backend:    opt.Oracle.Backend.String(),
		Budget:     budget,
		MinQuality: opt.MinQuality,
	})
	if err != nil {
		return nil, time.Since(start), err
	}
	if dec.Rung.Heuristic() {
		opt.Heuristic = dec.Rung.Name
	} else {
		opt.Eps = dec.Rung.Eps
	}
	return &dec, time.Since(start), nil
}

// observeSolve folds the measured latency of a completed solve into
// the attached cost model (when there is one), keyed by the
// configuration that ran. Only successful solves observe — a latency
// truncated by cancellation would poison the estimate — and repaired
// re-solves don't (repair latency says nothing about search cost).
func observeSolve(opt Options, in *sched.Instance, res *Result, elapsed time.Duration) {
	if opt.Planner == nil || res == nil || res.Quality.Rung == plan.RungRepair {
		return
	}
	k := plan.Key{Family: familyName(opt), Size: plan.SizeClass(len(in.Jobs))}
	if opt.Heuristic != "" {
		k.Rung = opt.Heuristic
	} else {
		// Keyed by the oracle policy and the eps the search actually
		// ran at.
		k.Rung = plan.RungEPTAS
		k.EpsIdx = plan.EpsIndex(opt.Eps)
		k.Backend = opt.Oracle.Backend.String()
	}
	opt.Planner.Observe(k, elapsed)
}

// setQuality records which rung answered and the bound it guarantees.
// rung is what actually produced res.Schedule; the requested rung (for
// the Degraded flag) is opt.Heuristic when a heuristic was forced,
// eptas otherwise.
func (env *solveEnv) setQuality(rung string) {
	res := env.res
	q := &res.Quality
	q.Rung = rung
	q.BackendUsed = res.Stats.OracleBackend
	requested := env.opt.Heuristic
	if requested == "" {
		requested = plan.RungEPTAS
	}
	q.Degraded = rung != requested && rung != plan.RungRepair
	switch rung {
	case plan.RungEPTAS, plan.RungRepair:
		q.EpsUsed = env.opt.Eps
		q.Bound = 1 + env.opt.Eps
	default:
		q.Bound = plan.HeuristicBound(familyName(env.opt), env.work.Machines, rung)
	}
	// A makespan at the lower bound is provably optimal whatever
	// produced it.
	if res.Schedule != nil && res.Makespan <= res.LowerBound {
		q.Bound = 1
	}
}

func familyName(opt Options) string {
	if opt.Family == nil {
		return "bags"
	}
	return opt.Family.Name()
}
