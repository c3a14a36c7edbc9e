// Package milp implements a branch-and-bound mixed-integer linear program
// solver on top of the simplex solver in package lp.
//
// It plays the role of the Lenstra/Kannan integer-programming oracle in the
// paper: the EPTAS only needs exact feasibility/optimality for MILPs whose
// integral dimension is a function of 1/epsilon, and branch-and-bound has
// exactly that profile — worst-case cost exponential only in the number of
// integer variables.
//
// A node's LP relaxation is the model's problem plus the node's chain of
// branching bounds. Solve never materializes that problem: it hands the
// chain to lp.Problem.SolveIn, which appends the bounds as rows after the
// shared base rows inside an lp.Workspace. Each solve takes one workspace
// from a package pool, so in steady state a node allocates little beyond
// its relaxation's solution vector.
package milp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/lp"
)

// Status is the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal integer solution was proven.
	StatusOptimal Status = iota
	// StatusFeasible means an integer solution was found but optimality
	// was not proven within the limits.
	StatusFeasible
	// StatusInfeasible means no integer solution exists.
	StatusInfeasible
	// StatusLimit means limits were exhausted with no integer solution.
	StatusLimit
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusLimit:
		return "limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Model is a mixed-integer program: an LP plus integrality marks.
type Model struct {
	// Prob is the underlying linear program (variables are >= 0).
	Prob *lp.Problem
	// Integer lists the variable indices that must take integer values.
	Integer []int
}

// Options tunes the search.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound nodes. Zero means
	// the default of 20000.
	MaxNodes int
	// StopAtFirst stops at the first integer-feasible solution, which is
	// the right mode for pure feasibility models (zero objective).
	StopAtFirst bool
	// DisableRounding turns off the largest-remainder rounding heuristic
	// (used by the EX-A2 ablation to quantify its effect).
	DisableRounding bool
	// Progress, when non-nil, is invoked once per expanded node and once
	// per simplex pivot inside each node's LP solve, with the cumulative
	// node and pivot counts so far. A non-nil return aborts the search
	// and is surfaced as Solve's error, discarding any incumbent. Tests
	// use it to hold a solve inside the oracle until they release it; a
	// solve whose MILP options set it gets a private memo (see
	// pipeline.New).
	Progress func(nodes, pivots int) error
}

// Solution is the outcome of Solve.
type Solution struct {
	Status Status
	// X holds variable values when Status is StatusOptimal or
	// StatusFeasible; integer variables are snapped to exact integers.
	X []float64
	// Obj is the objective value of X.
	Obj float64
	// Nodes is the number of branch-and-bound nodes expanded.
	Nodes int
	// Pivots is the total number of simplex pivots across all node LP
	// solves — the fine-grained, load-independent work measure of the
	// search (nodes vary hugely in cost; pivots do not).
	Pivots int
	// Bound is the best proven lower bound on the objective.
	Bound float64
}

// node is one open subproblem: the branching bounds from the root, each
// var <= val or var >= val.
type node struct {
	bounds []lp.Bound
	lpObj  float64 // parent LP bound (priority)
	depth  int
	free   *node // free-list link, meaningful only while recycled
}

// nodeQueue is a typed binary min-heap of *node ordered by (lpObj, depth)
// — best LP bound first, deeper nodes first on ties (diving behaviour).
// Compared to container/heap it avoids boxing every node through
// interface{} on Push/Pop, and its free-list recycles node structs and
// their bounds backing arrays: once the search is warm, branching
// allocates nothing but the occasional bounds growth.
type nodeQueue struct {
	items []*node
	free  *node
}

func (q *nodeQueue) len() int { return len(q.items) }

func (q *nodeQueue) less(a, b *node) bool {
	if a.lpObj != b.lpObj {
		return a.lpObj < b.lpObj
	}
	return a.depth > b.depth
}

func (q *nodeQueue) push(n *node) {
	q.items = append(q.items, n)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.items[i], q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *nodeQueue) pop() *node {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = nil
	q.items = q.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && q.less(q.items[l], q.items[smallest]) {
			smallest = l
		}
		if r < last && q.less(q.items[r], q.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
	return top
}

// newNode hands out a node carrying the parent's bounds plus one extra
// bound change, reusing a free-listed node (and its bounds capacity) when
// available.
func (q *nodeQueue) newNode(parent []lp.Bound, extra lp.Bound, lpObj float64, depth int) *node {
	n := q.free
	if n != nil {
		q.free = n.free
		n.free = nil
		n.bounds = n.bounds[:0]
	} else {
		n = &node{}
	}
	n.bounds = append(n.bounds, parent...)
	n.bounds = append(n.bounds, extra)
	n.lpObj = lpObj
	n.depth = depth
	return n
}

// recycle returns a popped-and-processed node to the free list.
func (q *nodeQueue) recycle(n *node) {
	n.free = q.free
	q.free = n
}

// intTol is the integrality tolerance: an integer variable within intTol
// of an integer is not branched on.
const intTol = 1e-6

// workspaces pools the simplex workspaces of the searches; a workspace
// is held for a whole solve.
var workspaces = sync.Pool{New: func() any { return new(lp.Workspace) }}

// Solve runs branch and bound and returns the best solution found. The
// context is polled once per node: a canceled or expired ctx aborts the
// search and returns ctx.Err(), discarding any incumbent — callers that
// cancel a solve no longer want its answer. This is how public context
// deadlines and canceled requests reach the innermost loop.
func Solve(ctx context.Context, m *Model, opt Options) (Solution, error) {
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 20000
	}

	var (
		incumbent    []float64
		incumbentObj = math.Inf(1)
		haveInc      bool
		nodes        int
		pivots       int
		bestBound    = math.Inf(1)
	)

	ws := workspaces.Get().(*lp.Workspace)
	defer workspaces.Put(ws)
	// One LP option set serves every node: during a node's solve pivots
	// still holds the count before it, so the hook reports the same
	// cumulative ticks a per-node closure over that count would.
	var lpOpt lp.Options
	if opt.Progress != nil {
		lpOpt.Progress = func(iters int) error { return opt.Progress(nodes, pivots+iters) }
	}
	var rounder rounder

	q := &nodeQueue{}
	q.push(&node{lpObj: math.Inf(-1)})

	rootBound := math.Inf(-1)
	for q.len() > 0 {
		if nodes >= opt.MaxNodes {
			break
		}
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		nd := q.pop()
		if haveInc && nd.lpObj >= incumbentObj-1e-9 {
			q.recycle(nd)
			continue // pruned by bound
		}
		nodes++
		if opt.Progress != nil {
			if err := opt.Progress(nodes, pivots); err != nil {
				return Solution{}, err
			}
		}

		res, err := m.Prob.SolveIn(ws, nd.bounds, lpOpt)
		pivots += res.Iters
		if err != nil {
			return Solution{}, err
		}
		switch res.Status {
		case lp.StatusInfeasible:
			q.recycle(nd)
			continue
		case lp.StatusUnbounded:
			// An unbounded relaxation with integer variables present is
			// treated as an error: our models are always bounded.
			return Solution{}, fmt.Errorf("milp: LP relaxation unbounded")
		case lp.StatusIterLimit:
			// Treat as unexplorable; conservatively keep searching.
			q.recycle(nd)
			continue
		}
		if nd.depth == 0 {
			rootBound = res.Obj
		}
		if haveInc && res.Obj >= incumbentObj-1e-9 {
			q.recycle(nd)
			continue
		}

		// Rounding heuristic: a sum-preserving largest-remainder round
		// of the integer variables often hits a feasible point directly
		// (configuration LPs are near-integral), avoiding deep search.
		if cand := rounder.round(res.X, m.Integer); !opt.DisableRounding && cand != nil && m.Prob.CheckFeasible(cand, 1e-6) {
			obj := m.Prob.Objective(cand)
			if !haveInc || obj < incumbentObj-1e-12 {
				incumbent = slices.Clone(cand)
				incumbentObj = obj
				haveInc = true
				if opt.StopAtFirst {
					return Solution{Status: StatusFeasible, X: incumbent, Obj: incumbentObj, Nodes: nodes, Pivots: pivots, Bound: rootBound}, nil
				}
			}
		}

		// Find the most fractional integer variable.
		branchVar := -1
		worst := intTol
		for _, v := range m.Integer {
			x := res.X[v]
			frac := math.Abs(x - math.Round(x))
			if frac > worst {
				worst = frac
				branchVar = v
			}
		}
		if branchVar < 0 {
			// Integer feasible.
			if res.Obj < incumbentObj-1e-12 || !haveInc {
				incumbent = snap(res.X, m.Integer)
				incumbentObj = res.Obj
				haveInc = true
				if opt.StopAtFirst {
					return Solution{Status: StatusFeasible, X: incumbent, Obj: incumbentObj, Nodes: nodes, Pivots: pivots, Bound: rootBound}, nil
				}
			}
			q.recycle(nd)
			continue
		}

		xv := res.X[branchVar]
		q.push(q.newNode(nd.bounds, lp.Bound{Var: branchVar, Upper: true, Val: math.Floor(xv)}, res.Obj, nd.depth+1))
		q.push(q.newNode(nd.bounds, lp.Bound{Var: branchVar, Upper: false, Val: math.Ceil(xv)}, res.Obj, nd.depth+1))
		q.recycle(nd)
	}

	if q.len() == 0 {
		bestBound = incumbentObj // search space exhausted: bound met
	} else {
		bestBound = q.items[0].lpObj
	}

	if haveInc {
		status := StatusFeasible
		if q.len() == 0 || bestBound >= incumbentObj-1e-9 {
			status = StatusOptimal
		}
		return Solution{Status: status, X: incumbent, Obj: incumbentObj, Nodes: nodes, Pivots: pivots, Bound: bestBound}, nil
	}
	if q.len() == 0 {
		return Solution{Status: StatusInfeasible, Nodes: nodes, Pivots: pivots}, nil
	}
	return Solution{Status: StatusLimit, Nodes: nodes, Pivots: pivots, Bound: bestBound}, nil
}

// rounder is the largest-remainder rounding heuristic with buffers that
// live for one search, so rounding a node's relaxation allocates nothing.
type rounder struct {
	fracs []frac
	out   []float64
}

// frac is an integer variable's fractional part.
type frac struct {
	v int
	f float64
}

// round rounds the integer components of x while preserving their
// total: all are floored, then the rounded total deficit is distributed
// to the variables with the largest fractional parts. This keeps
// aggregate rows like sum(x)=m satisfied and favours the columns the LP
// already leaned on. It returns nil when x is already integral; the
// returned slice is the rounder's buffer, valid until the next call.
func (r *rounder) round(x []float64, integer []int) []float64 {
	fracs := r.fracs[:0]
	total := 0.0
	floorSum := 0.0
	for _, v := range integer {
		total += x[v]
		f := x[v] - math.Floor(x[v])
		floorSum += math.Floor(x[v])
		if f > 1e-9 && f < 1-1e-9 {
			fracs = append(fracs, frac{v, f})
		}
	}
	r.fracs = fracs
	if len(fracs) == 0 {
		return nil
	}
	out := append(r.out[:0], x...)
	r.out = out
	for _, v := range integer {
		out[v] = math.Floor(x[v] + 1e-9)
	}
	deficit := int(math.Round(total - floorSum))
	// (f descending, v ascending) is a total order over distinct
	// variables, so any sort yields the same prefix.
	slices.SortFunc(fracs, func(a, b frac) int {
		switch {
		case a.f > b.f:
			return -1
		case a.f < b.f:
			return 1
		}
		return a.v - b.v
	})
	for i := 0; i < deficit && i < len(fracs); i++ {
		out[fracs[i].v]++
	}
	return out
}

// snap rounds the integer components of x to exact integers.
func snap(x []float64, integer []int) []float64 {
	out := slices.Clone(x)
	for _, v := range integer {
		out[v] = math.Round(out[v])
	}
	return out
}
