// Package lp implements a two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  a_i·x {<=, >=, =} b_i   for every constraint i
//	            x >= 0
//
// It is the linear-programming substrate below the branch-and-bound MILP
// solver in package milp, which together replace the Lenstra/Kannan integer
// programming oracle used by the paper. The implementation is a dense
// tableau simplex with Dantzig pricing and a Bland's-rule fallback that
// guarantees termination on degenerate problems.
//
// # Workspace
//
// The tableau is one flat row-major []float64 built once per solve in a
// Workspace, together with the right-hand side, the basis and the
// objective row. A workspace is reused across solves — branch and bound
// holds one per search — so a warm solve allocates only its
// returned X. SolveIn also takes a list of single-variable Bounds that
// it appends as rows after the problem's own, which is how a
// branch-and-bound node solves its relaxation without copying the
// problem: the tableau it builds, and so every pivot, is the one a
// copy extended by AddConstraint would produce, bit for bit.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Status is the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal basic feasible solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded below.
	StatusUnbounded
	// StatusIterLimit means the iteration limit was exhausted.
	StatusIterLimit
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Sense is the relation of a constraint row.
type Sense int

const (
	// LE is a_i·x <= b_i.
	LE Sense = iota
	// GE is a_i·x >= b_i.
	GE
	// EQ is a_i·x = b_i.
	EQ
)

// Term is one coefficient of a constraint row.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is one row of the program.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
}

// Problem is a linear program under construction. The zero value is an
// empty problem; add variables before referencing them in constraints.
type Problem struct {
	obj  []float64
	rows []Constraint
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddVar adds a non-negative variable with the given objective coefficient
// and returns its index.
func (p *Problem) AddVar(obj float64) int {
	p.obj = append(p.obj, obj)
	return len(p.obj) - 1
}

// SetObj changes the objective coefficient of variable v.
func (p *Problem) SetObj(v int, obj float64) { p.obj[v] = obj }

// AddConstraint adds a row and returns its index. Terms referencing
// variables that do not exist cause Solve to fail.
func (p *Problem) AddConstraint(terms []Term, sense Sense, rhs float64) int {
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.rows = append(p.rows, Constraint{Terms: cp, Sense: sense, RHS: rhs})
	return len(p.rows) - 1
}

// CheckFeasible reports whether x satisfies every constraint of the
// problem (and non-negativity) within tol.
func (p *Problem) CheckFeasible(x []float64, tol float64) bool {
	if len(x) != len(p.obj) {
		return false
	}
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	for _, r := range p.rows {
		act := 0.0
		for _, t := range r.Terms {
			act += t.Coef * x[t.Var]
		}
		switch r.Sense {
		case LE:
			if act > r.RHS+tol {
				return false
			}
		case GE:
			if act < r.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(act-r.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// Objective evaluates the objective at x.
func (p *Problem) Objective(x []float64) float64 {
	obj := 0.0
	for i, c := range p.obj {
		obj += c * x[i]
	}
	return obj
}

// Result is the outcome of Solve.
type Result struct {
	Status Status
	// X holds the variable values when Status is StatusOptimal.
	X []float64
	// Obj is the objective value when Status is StatusOptimal.
	Obj float64
	// Iters is the total number of simplex pivots performed.
	Iters int
}

// Options tunes the solver.
type Options struct {
	// MaxIters bounds total pivots across both phases. Zero means the
	// default of 200000.
	MaxIters int
	// Progress, when non-nil, is invoked once per simplex pivot with the
	// pivot count so far (across both phases). A non-nil return aborts
	// the solve and is surfaced as Solve's error. The branch-and-bound
	// layer forwards its own Progress hook here, so a caller's hook also
	// fires inside a node's LP solve, not just between nodes.
	Progress func(iters int) error
}

const (
	pivotEps = 1e-9
	feasEps  = 1e-7
)

// ErrBadProblem reports a structurally invalid problem.
var ErrBadProblem = errors.New("lp: constraint references unknown variable")

// Bound is a single-variable row x_Var <= Val (Upper) or x_Var >= Val
// that SolveIn appends after a problem's own rows. It is exactly the row
// AddConstraint([]Term{{Var, 1}}, LE or GE, Val) would add, so a bounded
// solve computes what solving a copy of the problem extended by those
// rows computes, without building the copy.
type Bound struct {
	Var   int
	Upper bool
	Val   float64
}

// Workspace is the reusable memory of a solve: the dense tableau, held as
// one flat row-major slice, and its per-row and per-column vectors. A
// solve sizes it to the problem at hand and overwrites every cell it
// reads, so one workspace serves problems of any shape in turn and a
// warm one makes a solve allocate nothing but its returned X. A
// workspace holds no result: it may be reused as soon as SolveIn
// returns, but never by two solves at once. The zero value is ready to
// use.
type Workspace struct {
	tab   tableau
	c     []float64 // cost vector of the running phase
	isArt []bool    // artificial columns
}

// Solve runs two-phase simplex and returns the result. The problem is not
// modified.
func (p *Problem) Solve(opt Options) (Result, error) {
	return p.SolveIn(new(Workspace), nil, opt)
}

// SolveIn runs two-phase simplex on p extended by the bound rows, in
// ws's memory, and returns the result. Neither p nor bounds is modified,
// so concurrent solves may share p as long as each has its own
// workspace.
func (p *Problem) SolveIn(ws *Workspace, bounds []Bound, opt Options) (Result, error) {
	maxIters := opt.MaxIters
	if maxIters <= 0 {
		maxIters = 200000
	}
	n := len(p.obj)
	m := len(p.rows) + len(bounds)
	for _, r := range p.rows {
		for _, t := range r.Terms {
			if t.Var < 0 || t.Var >= n {
				return Result{}, ErrBadProblem
			}
		}
	}
	// Column layout: [structural 0..n) | slack/surplus | artificial].
	// Every row gets either a slack (LE), a surplus+artificial (GE) or an
	// artificial (EQ); rows are normalized to non-negative RHS first, so
	// the column count follows from the normalized senses.
	ncols := n
	for _, r := range p.rows {
		ncols += auxCols(normalSense(r.Sense, r.RHS))
	}
	for _, bd := range bounds {
		if bd.Var < 0 || bd.Var >= n {
			return Result{}, ErrBadProblem
		}
		ncols += auxCols(normalSense(boundSense(bd), bd.Val))
	}

	t := &ws.tab
	t.reset(m, ncols)
	ws.c = resize(ws.c, ncols)
	ws.isArt = resize(ws.isArt, ncols)
	isArt := ws.isArt

	// Fill the tableau row by row, assigning auxiliary columns in row
	// order: the problem's rows first, then the bounds.
	next := n
	needPhase1 := false
	addRow := func(i int, sense Sense, rhs float64) {
		row := t.a[i*ncols : (i+1)*ncols]
		if rhs < 0 {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
			rhs = -rhs
			sense = flipSense(sense)
		}
		t.b[i] = rhs
		switch sense {
		case LE:
			row[next] = 1
			t.basis[i] = next
			next++
		case GE:
			row[next] = -1
			row[next+1] = 1
			isArt[next+1] = true
			t.basis[i] = next + 1
			next += 2
			needPhase1 = true
		case EQ:
			row[next] = 1
			isArt[next] = true
			t.basis[i] = next
			next++
			needPhase1 = true
		}
	}
	for i, r := range p.rows {
		row := t.a[i*ncols : i*ncols+n]
		for _, term := range r.Terms {
			row[term.Var] += term.Coef
		}
		addRow(i, r.Sense, r.RHS)
	}
	for k, bd := range bounds {
		i := len(p.rows) + k
		t.a[i*ncols+bd.Var] += 1
		addRow(i, boundSense(bd), bd.Val)
	}

	itersLeft := maxIters
	totalIters := 0

	// Phase I: minimize the sum of artificial variables.
	if needPhase1 {
		c1 := ws.c
		for j := range c1 {
			if isArt[j] {
				c1[j] = 1
			}
		}
		status, iters, err := t.optimize(c1, itersLeft, opt.Progress, totalIters)
		totalIters += iters
		itersLeft -= iters
		if err != nil {
			return Result{Iters: totalIters}, err
		}
		if status == StatusIterLimit {
			return Result{Status: StatusIterLimit, Iters: totalIters}, nil
		}
		// Phase-I objective value = sum of artificials.
		sum := 0.0
		for i := 0; i < m; i++ {
			if isArt[t.basis[i]] {
				sum += t.b[i]
			}
		}
		if sum > feasEps {
			return Result{Status: StatusInfeasible, Iters: totalIters}, nil
		}
		// Drive remaining artificials out of the basis where possible.
		t.evictArtificials(isArt)
	}

	// Phase II: original objective over non-artificial columns.
	c2 := ws.c
	copy(c2, p.obj)
	clear(c2[n:])
	t.banned = isArt
	status, iters, err := t.optimize(c2, itersLeft, opt.Progress, totalIters)
	totalIters += iters
	if err != nil {
		return Result{Iters: totalIters}, err
	}
	if status == StatusIterLimit {
		return Result{Status: StatusIterLimit, Iters: totalIters}, nil
	}
	if status == StatusUnbounded {
		return Result{Status: StatusUnbounded, Iters: totalIters}, nil
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if t.basis[i] < n {
			x[t.basis[i]] = t.b[i]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.obj[j] * x[j]
	}
	return Result{Status: StatusOptimal, X: x, Obj: obj, Iters: totalIters}, nil
}

// boundSense is the sense of a bound's row.
func boundSense(bd Bound) Sense {
	if bd.Upper {
		return LE
	}
	return GE
}

// flipSense is the sense of a row after negating both sides.
func flipSense(s Sense) Sense {
	switch s {
	case LE:
		return GE
	case GE:
		return LE
	}
	return s
}

// normalSense is the sense of a row after normalizing it to a
// non-negative right-hand side.
func normalSense(s Sense, rhs float64) Sense {
	if rhs < 0 {
		return flipSense(s)
	}
	return s
}

// auxCols is the number of slack, surplus and artificial columns a row
// of normalized sense s adds.
func auxCols(s Sense) int {
	if s == GE {
		return 2
	}
	return 1
}

// resize returns s with length n and every element zero, reusing its
// backing array when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		// Headroom: a pooled workspace sees slowly growing shapes, and
		// doubling keeps their reallocations logarithmic.
		return make([]T, n, max(n, 2*cap(s)))
	}
	s = s[:n]
	clear(s)
	return s
}

// tableau is the dense simplex working state: m rows of n columns in one
// row-major slice.
type tableau struct {
	m, n   int
	a      []float64
	b      []float64
	basis  []int
	z      []float64 // objective row of the running phase
	banned []bool    // columns that may not enter (artificials in phase II)
}

// reset sizes the tableau to m rows of n columns, all zero.
func (t *tableau) reset(m, n int) {
	t.m, t.n = m, n
	t.a = resize(t.a, m*n)
	t.b = resize(t.b, m)
	t.basis = resize(t.basis, m)
	t.z = resize(t.z, n)
	t.banned = nil
}

// row returns row i of the tableau.
func (t *tableau) row(i int) []float64 { return t.a[i*t.n : (i+1)*t.n] }

// optimize runs primal simplex minimizing c over the current tableau.
// It returns the terminal status and the number of pivots performed.
// progress (may be nil) is invoked once per pivot with base plus the
// pivots performed so far; a non-nil return aborts the phase.
func (t *tableau) optimize(c []float64, maxIters int, progress func(int) error, base int) (Status, int, error) {
	// Reduced costs are recomputed per iteration from the basis; for the
	// dense tableau we maintain the objective row explicitly.
	z := t.z
	copy(z, c)
	zb := 0.0
	// Price out the current basis.
	for i := 0; i < t.m; i++ {
		cb := c[t.basis[i]]
		if cb == 0 {
			continue
		}
		axpy(z, t.row(i), cb)
		zb -= cb * t.b[i]
	}

	iters := 0
	degenerate := 0
	useBland := false
	for {
		if iters >= maxIters {
			return StatusIterLimit, iters, nil
		}
		// Entering column.
		enter := -1
		if useBland {
			for j := 0; j < t.n; j++ {
				if (t.banned == nil || !t.banned[j]) && z[j] < -pivotEps {
					enter = j
					break
				}
			}
		} else {
			best := -pivotEps
			for j := 0; j < t.n; j++ {
				if (t.banned == nil || !t.banned[j]) && z[j] < best {
					best = z[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return StatusOptimal, iters, nil
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i*t.n+enter]
			if aij > pivotEps {
				ratio := t.b[i] / aij
				if ratio < bestRatio-pivotEps ||
					(ratio < bestRatio+pivotEps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return StatusUnbounded, iters, nil
		}
		if bestRatio < pivotEps {
			degenerate++
			if degenerate > 2*(t.m+t.n) {
				useBland = true
			}
		} else {
			degenerate = 0
		}
		t.pivot(leave, enter, z, &zb)
		iters++
		if progress != nil {
			if err := progress(base + iters); err != nil {
				return 0, iters, err
			}
		}
	}
}

// pivot performs a single pivot on (row, col) and updates the objective
// row z and objective constant zb.
func (t *tableau) pivot(row, col int, z []float64, zb *float64) {
	arow := t.row(row)
	inv := 1.0 / arow[col]
	for j := range arow {
		arow[j] *= inv
	}
	t.b[row] *= inv
	arow[col] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		ai := t.row(i)
		f := ai[col]
		if f == 0 {
			continue
		}
		axpy(ai, arow, f)
		ai[col] = 0 // exact
		t.b[i] -= f * t.b[row]
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	f := z[col]
	if f != 0 {
		axpy(z, arow, f)
		z[col] = 0
		*zb -= f * t.b[row]
	}
	t.basis[row] = col
}

// axpy sets a[j] -= f*x[j] for every j < len(a): the row update of a
// pivot, nearly all of a simplex solve's time on wide tableaux. It only
// touches rows of one workspace, which a single search owns, so it
// is exempt from race instrumentation: checking every element made the
// simplex several times slower under -race, enough to push the
// repository's race-detector suites past the test timeout.
//
//go:norace
func axpy(a, x []float64, f float64) {
	x = x[:len(a)]
	for j := range a {
		a[j] -= f * x[j]
	}
}

// evictArtificials pivots basic artificial variables (at value zero after
// a successful phase I) out of the basis when a non-artificial column with
// a nonzero coefficient exists in their row.
func (t *tableau) evictArtificials(isArt []bool) {
	z := t.z // dummy objective row for pivoting: all zero, so it stays so
	clear(z)
	zb := 0.0
	for i := 0; i < t.m; i++ {
		if !isArt[t.basis[i]] {
			continue
		}
		ai := t.row(i)
		for j := range ai {
			if !isArt[j] && math.Abs(ai[j]) > 1e-7 {
				t.pivot(i, j, z, &zb)
				break
			}
		}
		// If no pivot column exists the row is redundant; the artificial
		// stays basic at value zero, which is harmless because phase II
		// bans artificial columns from entering.
	}
}
