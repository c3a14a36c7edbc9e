package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// This file keeps the row-slice simplex the package used before the flat
// workspace as the reference the workspace path must match bit for bit:
// the same status, X and Obj bits, pivot count and Progress ticks, on the
// problem alone and with bound rows appended. refSolve builds the bounded
// problem the old way — a copy of the problem plus one AddConstraint per
// bound — and solves it with refSolveProblem.

// refSolve solves p extended by bounds the way branch-and-bound nodes
// used to: copy the problem, add each bound as a row, solve.
func refSolve(p *Problem, bounds []Bound, opt Options) (Result, error) {
	q := &Problem{obj: append([]float64(nil), p.obj...)}
	for _, r := range p.rows {
		q.AddConstraint(r.Terms, r.Sense, r.RHS)
	}
	for _, bd := range bounds {
		q.AddConstraint([]Term{{Var: bd.Var, Coef: 1}}, boundSense(bd), bd.Val)
	}
	return refSolveProblem(q, opt)
}

// refSolveProblem is the row-slice Problem.Solve, verbatim but for its
// name and the renamed refTableau type.
func refSolveProblem(p *Problem, opt Options) (Result, error) {
	maxIters := opt.MaxIters
	if maxIters <= 0 {
		maxIters = 200000
	}
	n := len(p.obj)
	m := len(p.rows)
	for _, r := range p.rows {
		for _, t := range r.Terms {
			if t.Var < 0 || t.Var >= n {
				return Result{}, ErrBadProblem
			}
		}
	}

	// Column layout: [structural 0..n) | slack/surplus | artificial].
	// Every row gets either a slack (LE), a surplus+artificial (GE) or an
	// artificial (EQ); rows are normalized to non-negative RHS first.
	type rowAux struct {
		slack, art int // column indices or -1
	}
	aux := make([]rowAux, m)
	ncols := n
	// Dense matrix built row by row.
	a := make([][]float64, m)
	b := make([]float64, m)
	for i, r := range p.rows {
		row := make([]float64, n)
		for _, t := range r.Terms {
			row[t.Var] += t.Coef
		}
		rhs := r.RHS
		sense := r.Sense
		if rhs < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		a[i] = row
		b[i] = rhs
		aux[i] = rowAux{slack: -1, art: -1}
		switch sense {
		case LE:
			aux[i].slack = ncols
			ncols++
		case GE:
			aux[i].slack = ncols
			ncols++
			aux[i].art = ncols
			ncols++
		case EQ:
			aux[i].art = ncols
			ncols++
		}
	}

	// Rebuild senses after normalization for slack signs.
	slackSign := make([]float64, m)
	hasArt := make([]bool, m)
	for i, r := range p.rows {
		sense := r.Sense
		if r.RHS < 0 {
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		switch sense {
		case LE:
			slackSign[i] = 1
		case GE:
			slackSign[i] = -1
			hasArt[i] = true
		case EQ:
			slackSign[i] = 0
			hasArt[i] = true
		}
	}

	// Full refTableau: m rows x ncols columns plus RHS.
	t := &refTableau{
		m: m, n: ncols, nStruct: n,
		a:     make([][]float64, m),
		b:     make([]float64, m),
		basis: make([]int, m),
	}
	for i := 0; i < m; i++ {
		row := make([]float64, ncols)
		copy(row, a[i])
		if aux[i].slack >= 0 {
			row[aux[i].slack] = slackSign[i]
		}
		if aux[i].art >= 0 {
			row[aux[i].art] = 1
		}
		t.a[i] = row
		t.b[i] = b[i]
		if aux[i].art >= 0 {
			t.basis[i] = aux[i].art
		} else {
			t.basis[i] = aux[i].slack
		}
	}

	isArt := make([]bool, ncols)
	for i := 0; i < m; i++ {
		if aux[i].art >= 0 {
			isArt[aux[i].art] = true
		}
	}

	itersLeft := maxIters
	totalIters := 0

	// Phase I: minimize the sum of artificial variables.
	needPhase1 := false
	for i := 0; i < m; i++ {
		if hasArt[i] {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		c1 := make([]float64, ncols)
		for j := 0; j < ncols; j++ {
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
	c2 := make([]float64, ncols)
	copy(c2, p.obj)
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

// refTableau is the dense simplex working state.
type refTableau struct {
	m, n    int
	nStruct int
	a       [][]float64
	b       []float64
	basis   []int
	banned  []bool // columns that may not enter (artificials in phase II)
}

// optimize runs primal simplex minimizing c over the current refTableau.
// It returns the terminal status and the number of pivots performed.
// progress (may be nil) is invoked once per pivot with base plus the
// pivots performed so far; a non-nil return aborts the phase.
func (t *refTableau) optimize(c []float64, maxIters int, progress func(int) error, base int) (Status, int, error) {
	// Reduced costs are recomputed per iteration from the basis; for the
	// dense refTableau we maintain the objective row explicitly.
	z := make([]float64, t.n)
	copy(z, c)
	zb := 0.0
	// Price out the current basis.
	for i := 0; i < t.m; i++ {
		cb := c[t.basis[i]]
		if cb == 0 {
			continue
		}
		for j := 0; j < t.n; j++ {
			z[j] -= cb * t.a[i][j]
		}
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
			aij := t.a[i][enter]
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
func (t *refTableau) pivot(row, col int, z []float64, zb *float64) {
	piv := t.a[row][col]
	inv := 1.0 / piv
	arow := t.a[row]
	for j := 0; j < t.n; j++ {
		arow[j] *= inv
	}
	t.b[row] *= inv
	arow[col] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ai := t.a[i]
		for j := 0; j < t.n; j++ {
			ai[j] -= f * arow[j]
		}
		ai[col] = 0 // exact
		t.b[i] -= f * t.b[row]
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	f := z[col]
	if f != 0 {
		for j := 0; j < t.n; j++ {
			z[j] -= f * arow[j]
		}
		z[col] = 0
		*zb -= f * t.b[row]
	}
	t.basis[row] = col
}

// evictArtificials pivots basic artificial variables (at value zero after
// a successful phase I) out of the basis when a non-artificial column with
// a nonzero coefficient exists in their row.
func (t *refTableau) evictArtificials(isArt []bool) {
	z := make([]float64, t.n) // dummy objective row for pivoting
	zb := 0.0
	for i := 0; i < t.m; i++ {
		if !isArt[t.basis[i]] {
			continue
		}
		for j := 0; j < t.n; j++ {
			if !isArt[j] && math.Abs(t.a[i][j]) > 1e-7 {
				t.pivot(i, j, z, &zb)
				break
			}
		}
		// If no pivot column exists the row is redundant; the artificial
		// stays basic at value zero, which is harmless because phase II
		// bans artificial columns from entering.
	}
}

// randomProblem draws an LP with every row kind, negative right-hand
// sides, duplicate terms and coefficients on a coarse grid (so ties and
// degenerate pivots are common), plus a chain of bounds like the ones a
// branch-and-bound dive appends, some with negative values.
func randomProblem(rng *rand.Rand, maxVars, maxRows, maxBounds int) (*Problem, []Bound) {
	n := 1 + rng.Intn(maxVars)
	p := NewProblem()
	for v := 0; v < n; v++ {
		p.AddVar(float64(rng.Intn(9)-4) / 2)
	}
	rows := rng.Intn(maxRows + 1)
	for r := 0; r < rows; r++ {
		var terms []Term
		for k := rng.Intn(n + 2); k >= 0; k-- {
			terms = append(terms, Term{Var: rng.Intn(n), Coef: float64(rng.Intn(13)-4) / 2})
		}
		p.AddConstraint(terms, Sense(rng.Intn(3)), float64(rng.Intn(21)-5)/2)
	}
	bounds := make([]Bound, rng.Intn(maxBounds+1))
	for i := range bounds {
		bounds[i] = Bound{Var: rng.Intn(n), Upper: rng.Intn(2) == 0, Val: float64(rng.Intn(8) - 1)}
	}
	return p, bounds
}

// sameResult reports whether two solves agree bit for bit.
func sameResult(a, b Result, errA, errB error) bool {
	if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
		return false
	}
	if a.Status != b.Status || a.Iters != b.Iters || math.Float64bits(a.Obj) != math.Float64bits(b.Obj) || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// checkAgainstReference solves p with bounds both ways, in ws, and fails
// on any difference. Progress ticks are recorded and compared too, and
// when abortAt > 0 the hook aborts the solve at that tick.
func checkAgainstReference(t *testing.T, ws *Workspace, p *Problem, bounds []Bound, abortAt int) {
	t.Helper()
	errAbort := errors.New("abort")
	var gotTicks, wantTicks []int
	hook := func(ticks *[]int) func(int) error {
		return func(iters int) error {
			*ticks = append(*ticks, iters)
			if abortAt > 0 && iters >= abortAt {
				return errAbort
			}
			return nil
		}
	}
	want, wantErr := refSolve(p, bounds, Options{Progress: hook(&wantTicks)})
	got, gotErr := p.SolveIn(ws, bounds, Options{Progress: hook(&gotTicks)})
	if !sameResult(got, want, gotErr, wantErr) {
		t.Fatalf("workspace solve (%v, %v, obj %v, %d iters, err %v) differs from the reference (%v, %v, obj %v, %d iters, err %v)",
			got.Status, got.X, got.Obj, got.Iters, gotErr, want.Status, want.X, want.Obj, want.Iters, wantErr)
	}
	if len(gotTicks) != len(wantTicks) {
		t.Fatalf("progress ticked %d times, reference %d", len(gotTicks), len(wantTicks))
	}
	for i := range gotTicks {
		if gotTicks[i] != wantTicks[i] {
			t.Fatalf("progress tick %d = %d, reference %d", i, gotTicks[i], wantTicks[i])
		}
	}
}

func TestSolveInMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260417))
	ws := new(Workspace)
	statuses := map[Status]int{}
	for trial := 0; trial < 3000; trial++ {
		p, bounds := randomProblem(rng, 7, 7, 6)
		abortAt := 0
		if trial%10 == 9 {
			abortAt = 1 + rng.Intn(4)
		}
		checkAgainstReference(t, ws, p, bounds, abortAt)
		if abortAt == 0 {
			res, _ := p.SolveIn(ws, bounds, Options{})
			statuses[res.Status]++
		}
	}
	// The generator must reach every terminal status for the comparison
	// to mean something.
	for _, s := range []Status{StatusOptimal, StatusInfeasible, StatusUnbounded} {
		if statuses[s] == 0 {
			t.Errorf("no random problem ended %v: %v", s, statuses)
		}
	}
}

// TestSolveInDirtyWorkspace: a workspace first filled by a larger
// problem (more rows, more columns, a different phase structure) must
// solve a smaller one exactly like a fresh workspace and the reference.
func TestSolveInDirtyWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		ws := new(Workspace)
		big, bigBounds := randomProblem(rng, 12, 12, 8)
		big.SolveIn(ws, bigBounds, Options{}) //nolint:errcheck
		p, bounds := randomProblem(rng, 5, 5, 4)
		checkAgainstReference(t, ws, p, bounds, 0)
		fresh, freshErr := p.SolveIn(new(Workspace), bounds, Options{})
		again, againErr := p.SolveIn(ws, bounds, Options{})
		if !sameResult(again, fresh, againErr, freshErr) {
			t.Fatalf("trial %d: reused workspace differs from a fresh one", trial)
		}
	}
}

// TestSolveInLeavesInputsAlone: a bounded solve neither adds rows to the
// problem nor changes the bounds it was given.
func TestSolveInLeavesInputsAlone(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(-1)
	p.AddConstraint([]Term{{x, 1}}, LE, 4)
	bounds := []Bound{{Var: x, Upper: true, Val: 2}}
	res, err := p.SolveIn(new(Workspace), bounds, Options{})
	if err != nil || res.Status != StatusOptimal || res.X[0] != 2 {
		t.Fatalf("bounded solve = %+v, %v; want x = 2", res, err)
	}
	if p.NumRows() != 1 || bounds[0] != (Bound{Var: x, Upper: true, Val: 2}) {
		t.Fatalf("solve changed its inputs: %d rows, bounds %+v", p.NumRows(), bounds)
	}
	if res := solveOK(t, p); res.X[0] != 4 {
		t.Fatalf("unbounded solve x = %v, want 4", res.X[0])
	}
	if _, err := p.SolveIn(new(Workspace), []Bound{{Var: 3}}, Options{}); !errors.Is(err, ErrBadProblem) {
		t.Fatalf("bound on an unknown variable: err %v, want ErrBadProblem", err)
	}
}

// TestSolveInWarmAllocs pins the workspace's point: once warm, a solve
// allocates exactly its returned X.
func TestSolveInWarmAllocs(t *testing.T) {
	p := NewProblem()
	x, y, z := p.AddVar(-1), p.AddVar(-2), p.AddVar(1)
	p.AddConstraint([]Term{{x, 1}, {y, 1}, {z, 1}}, LE, 10)
	p.AddConstraint([]Term{{x, 1}, {z, -1}}, GE, 1)
	p.AddConstraint([]Term{{y, 2}, {z, 1}}, EQ, 6)
	bounds := []Bound{{Var: y, Upper: true, Val: 2}, {Var: x, Upper: false, Val: 3}}
	ws := new(Workspace)
	if res, err := p.SolveIn(ws, bounds, Options{}); err != nil || res.Status != StatusOptimal {
		t.Fatalf("warm-up solve = %+v, %v", res, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.SolveIn(ws, bounds, Options{}) //nolint:errcheck
	})
	if allocs != 1 {
		t.Fatalf("warm-workspace solve made %v allocations, want 1 (the returned X)", allocs)
	}
}

// FuzzSolveBounds compares the workspace path with the reference on
// problems decoded from arbitrary bytes.
func FuzzSolveBounds(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 4, 2, 6, 9, 1, 1, 3, 2})
	f.Add([]byte{5, 5, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{1, 0, 3, 0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := 1 + next()%6
		rows := next() % 7
		nb := next() % 6
		p := NewProblem()
		for v := 0; v < n; v++ {
			p.AddVar(float64(next()%9-4) / 2)
		}
		for r := 0; r < rows; r++ {
			terms := make([]Term, 1+next()%n)
			for k := range terms {
				terms[k] = Term{Var: next() % n, Coef: float64(next()%13-4) / 2}
			}
			p.AddConstraint(terms, Sense(next()%3), float64(next()%21-5)/2)
		}
		bounds := make([]Bound, nb)
		for i := range bounds {
			bounds[i] = Bound{Var: next() % n, Upper: next()%2 == 0, Val: float64(next()%8 - 1)}
		}
		checkAgainstReference(t, new(Workspace), p, bounds, 0)
	})
}
