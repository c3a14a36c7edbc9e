package milp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/lp"
)

// This file keeps the branch-and-bound loop the package ran before the
// simplex workspace — a fresh copy of the problem plus one AddConstraint
// per bound at every node — as the reference the workspace path must
// match bit for bit: status, X, Obj and Bound bits, nodes, pivots and
// every Progress tick.

// milpSpec describes a random MILP so the reference can rebuild each
// node's problem from scratch.
type milpSpec struct {
	obj     []float64
	rows    []lp.Constraint
	integer []int
}

// problem builds the spec's LP with the bound rows appended.
func (s *milpSpec) problem(bounds []lp.Bound) *lp.Problem {
	p := lp.NewProblem()
	for _, c := range s.obj {
		p.AddVar(c)
	}
	for _, r := range s.rows {
		p.AddConstraint(r.Terms, r.Sense, r.RHS)
	}
	for _, bd := range bounds {
		sense := lp.GE
		if bd.Upper {
			sense = lp.LE
		}
		p.AddConstraint([]lp.Term{{Var: bd.Var, Coef: 1}}, sense, bd.Val)
	}
	return p
}

func (s *milpSpec) model() *Model {
	return &Model{Prob: s.problem(nil), Integer: s.integer}
}

// randomSpec draws a bounded MILP: box rows on every variable, a few
// random rows of every kind, and a random subset of integer variables.
func randomSpec(rng *rand.Rand) *milpSpec {
	n := 2 + rng.Intn(5)
	s := &milpSpec{}
	for v := 0; v < n; v++ {
		s.obj = append(s.obj, float64(rng.Intn(11)-5))
		s.rows = append(s.rows, lp.Constraint{Terms: []lp.Term{{Var: v, Coef: 1}}, Sense: lp.LE, RHS: float64(1 + rng.Intn(4))})
		if rng.Intn(4) != 0 {
			s.integer = append(s.integer, v)
		}
	}
	for r := rng.Intn(4); r >= 0; r-- {
		var terms []lp.Term
		for v := 0; v < n; v++ {
			if rng.Intn(3) != 0 {
				terms = append(terms, lp.Term{Var: v, Coef: float64(1+rng.Intn(7)) / 2})
			}
		}
		if len(terms) == 0 {
			continue
		}
		s.rows = append(s.rows, lp.Constraint{Terms: terms, Sense: lp.Sense(rng.Intn(3)), RHS: float64(rng.Intn(17)) / 2})
	}
	return s
}

// refSolve is the former Solve, sequential path, with the per-node
// problem built by spec.problem instead of Problem.Clone.
func refSolve(ctx context.Context, spec *milpSpec, opt Options) (Solution, error) {
	m := spec.model()
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 20000
	}
	if opt.IntTol <= 0 {
		opt.IntTol = 1e-6
	}
	deadline := time.Time{}
	if opt.TimeLimit > 0 {
		deadline = time.Now().Add(opt.TimeLimit)
	}
	isInt := make(map[int]bool, len(m.Integer))
	for _, v := range m.Integer {
		isInt[v] = true
	}
	var (
		incumbent    []float64
		incumbentObj = math.Inf(1)
		haveInc      bool
		nodes        int
		pivots       int
		bestBound    = math.Inf(1)
	)
	q := &nodeQueue{}
	q.push(&node{lpObj: math.Inf(-1)})
	rootBound := math.Inf(-1)
	for q.len() > 0 {
		if nodes >= opt.MaxNodes {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		nd := q.pop()
		if haveInc && nd.lpObj >= incumbentObj-1e-9 {
			q.recycle(nd)
			continue
		}
		nodes++
		if opt.Progress != nil {
			if err := opt.Progress(nodes, pivots); err != nil {
				return Solution{}, err
			}
		}
		prob := spec.problem(nd.bounds)
		lpOpt := lp.Options{MaxIters: opt.LPMaxIters}
		if opt.Progress != nil {
			base := pivots
			lpOpt.Progress = func(iters int) error { return opt.Progress(nodes, base+iters) }
		}
		res, err := prob.Solve(lpOpt)
		pivots += res.Iters
		if err != nil {
			return Solution{}, err
		}
		switch res.Status {
		case lp.StatusInfeasible:
			q.recycle(nd)
			continue
		case lp.StatusUnbounded:
			return Solution{}, fmt.Errorf("milp: LP relaxation unbounded")
		case lp.StatusIterLimit:
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
		if cand := refRoundHeuristic(res.X, m.Integer); !opt.DisableRounding && cand != nil && m.Prob.CheckFeasible(cand, 1e-6) {
			obj := m.Prob.Objective(cand)
			if !haveInc || obj < incumbentObj-1e-12 {
				incumbent = cand
				incumbentObj = obj
				haveInc = true
				if opt.StopAtFirst {
					return Solution{Status: StatusFeasible, X: incumbent, Obj: incumbentObj, Nodes: nodes, Pivots: pivots, Bound: rootBound}, nil
				}
			}
		}
		branchVar := -1
		worst := opt.IntTol
		for _, v := range m.Integer {
			x := res.X[v]
			frac := math.Abs(x - math.Round(x))
			if frac > worst {
				worst = frac
				branchVar = v
			}
		}
		if branchVar < 0 {
			if res.Obj < incumbentObj-1e-12 || !haveInc {
				incumbent = refSnap(res.X, isInt)
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
		bestBound = incumbentObj
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

// refRoundHeuristic is the former allocating rounding heuristic.
func refRoundHeuristic(x []float64, integer []int) []float64 {
	type frac struct {
		v int
		f float64
	}
	var fracs []frac
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
	if len(fracs) == 0 {
		return nil
	}
	out := make([]float64, len(x))
	copy(out, x)
	for _, v := range integer {
		out[v] = math.Floor(x[v] + 1e-9)
	}
	deficit := int(math.Round(total - floorSum))
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].f != fracs[j].f {
			return fracs[i].f > fracs[j].f
		}
		return fracs[i].v < fracs[j].v
	})
	for i := 0; i < deficit && i < len(fracs); i++ {
		out[fracs[i].v]++
	}
	return out
}

func refSnap(x []float64, isInt map[int]bool) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for v := range isInt {
		out[v] = math.Round(out[v])
	}
	return out
}

// sameSolution reports whether two solutions agree bit for bit.
func sameSolution(a, b Solution) bool {
	if a.Status != b.Status || a.Nodes != b.Nodes || a.Pivots != b.Pivots || a.TimedOut != b.TimedOut ||
		math.Float64bits(a.Obj) != math.Float64bits(b.Obj) || math.Float64bits(a.Bound) != math.Float64bits(b.Bound) ||
		len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// TestSolveMatchesReference runs random MILPs under varied options
// through Solve and the reference, comparing solutions and the full
// Progress tick stream.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	errAbort := errors.New("abort")
	statuses := map[Status]int{}
	for trial := 0; trial < 600; trial++ {
		spec := randomSpec(rng)
		opt := Options{
			StopAtFirst:     rng.Intn(3) == 0,
			DisableRounding: rng.Intn(4) == 0,
		}
		if rng.Intn(4) == 0 {
			opt.MaxNodes = 1 + rng.Intn(6)
		}
		abortAt := 0
		if trial%7 == 6 {
			abortAt = 1 + rng.Intn(30)
		}
		hook := func(ticks *[][2]int) func(nodes, pivots int) error {
			return func(nodes, pivots int) error {
				*ticks = append(*ticks, [2]int{nodes, pivots})
				if abortAt > 0 && len(*ticks) >= abortAt {
					return errAbort
				}
				return nil
			}
		}
		var wantTicks [][2]int
		ropt := opt
		ropt.Progress = hook(&wantTicks)
		want, wantErr := refSolve(context.Background(), spec, ropt)
		var gotTicks [][2]int
		gopt := opt
		gopt.Progress = hook(&gotTicks)
		got, gotErr := Solve(context.Background(), spec.model(), gopt)
		if (gotErr == nil) != (wantErr == nil) || !sameSolution(got, want) {
			t.Fatalf("trial %d: Solve = %+v, %v; reference %+v, %v", trial, got, gotErr, want, wantErr)
		}
		if len(gotTicks) != len(wantTicks) {
			t.Fatalf("trial %d: %d progress ticks, reference %d", trial, len(gotTicks), len(wantTicks))
		}
		for i := range gotTicks {
			if gotTicks[i] != wantTicks[i] {
				t.Fatalf("trial %d: tick %d = %v, reference %v", trial, i, gotTicks[i], wantTicks[i])
			}
		}
		if wantErr == nil {
			statuses[want.Status]++
		}
	}
	for _, s := range []Status{StatusOptimal, StatusFeasible, StatusInfeasible, StatusLimit} {
		if statuses[s] == 0 {
			t.Errorf("no random model ended %v: %v", s, statuses)
		}
	}
}

// TestTimeLimitReported: a search stopped by the wall clock says so, and
// no other stop does.
func TestTimeLimitReported(t *testing.T) {
	m := oddCycleModel(6)
	sol, err := Solve(context.Background(), m, Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit || !sol.TimedOut || sol.Nodes != 0 {
		t.Fatalf("1ns search = %+v, want a timed-out limit before any node", sol)
	}
	sol, err = Solve(context.Background(), m, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.TimedOut {
		t.Fatalf("node-budget stop reported as timed out: %+v", sol)
	}
}
