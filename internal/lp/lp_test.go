package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-6

func solveOK(t *testing.T, p *Problem) Result {
	t.Helper()
	res, err := p.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestSimpleMaximization(t *testing.T) {
	// max x+y s.t. x<=2, y<=3, x+y<=4  => min -(x+y) = -4.
	p := NewProblem()
	x := p.AddVar(-1)
	y := p.AddVar(-1)
	p.AddConstraint([]Term{{x, 1}}, LE, 2)
	p.AddConstraint([]Term{{y, 1}}, LE, 3)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj+4) > tol {
		t.Errorf("obj = %g, want -4", res.Obj)
	}
	if math.Abs(res.X[x]+res.X[y]-4) > tol {
		t.Errorf("x+y = %g, want 4", res.X[x]+res.X[y])
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min 2x+3y s.t. x+y=10, x>=3, y>=2 => x=8,y=2, obj=22.
	p := NewProblem()
	x := p.AddVar(2)
	y := p.AddVar(3)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 10)
	p.AddConstraint([]Term{{x, 1}}, GE, 3)
	p.AddConstraint([]Term{{y, 1}}, GE, 2)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-22) > tol {
		t.Errorf("obj = %g, want 22", res.Obj)
	}
	if math.Abs(res.X[x]-8) > tol || math.Abs(res.X[y]-2) > tol {
		t.Errorf("x,y = %g,%g want 8,2", res.X[x], res.X[y])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(1)
	p.AddConstraint([]Term{{x, 1}}, GE, 5)
	p.AddConstraint([]Term{{x, 1}}, LE, 3)
	res := solveOK(t, p)
	if res.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(-1) // min -x, x >= 0, unbounded
	p.AddConstraint([]Term{{x, 1}}, GE, 0)
	res := solveOK(t, p)
	if res.Status != StatusUnbounded {
		t.Errorf("status = %v, want unbounded", res.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -2 with min x+y => y >= x+2, best x=0,y=2.
	p := NewProblem()
	x := p.AddVar(1)
	y := p.AddVar(1)
	p.AddConstraint([]Term{{x, 1}, {y, -1}}, LE, -2)
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj-2) > tol {
		t.Errorf("obj = %g, want 2", res.Obj)
	}
}

func TestNegativeRHSEquality(t *testing.T) {
	// -x = -3 => x = 3.
	p := NewProblem()
	x := p.AddVar(1)
	p.AddConstraint([]Term{{x, -1}}, EQ, -3)
	res := solveOK(t, p)
	if res.Status != StatusOptimal || math.Abs(res.X[x]-3) > tol {
		t.Errorf("status=%v x=%v", res.Status, res.X)
	}
}

func TestDegenerateKleeMintyish(t *testing.T) {
	// A problem with heavy degeneracy; must terminate and be optimal.
	p := NewProblem()
	n := 6
	vars := make([]int, n)
	for i := range vars {
		vars[i] = p.AddVar(-1)
	}
	for i := range vars {
		p.AddConstraint([]Term{{vars[i], 1}}, LE, 0) // all pinned to 0
	}
	res := solveOK(t, p)
	if res.Status != StatusOptimal || math.Abs(res.Obj) > tol {
		t.Errorf("status=%v obj=%g", res.Status, res.Obj)
	}
}

func TestDuplicateTermsAreSummed(t *testing.T) {
	// x + x <= 4 means 2x <= 4.
	p := NewProblem()
	x := p.AddVar(-1)
	p.AddConstraint([]Term{{x, 1}, {x, 1}}, LE, 4)
	res := solveOK(t, p)
	if math.Abs(res.X[x]-2) > tol {
		t.Errorf("x = %g, want 2", res.X[x])
	}
}

func TestBadVariableIndex(t *testing.T) {
	p := NewProblem()
	p.AddVar(1)
	p.AddConstraint([]Term{{5, 1}}, LE, 1)
	if _, err := p.Solve(Options{}); err == nil {
		t.Error("expected ErrBadProblem")
	}
}

func TestIterLimit(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(-1)
	y := p.AddVar(-1)
	p.AddConstraint([]Term{{x, 1}, {y, 2}}, LE, 10)
	p.AddConstraint([]Term{{x, 2}, {y, 1}}, LE, 10)
	res, err := p.Solve(Options{MaxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusIterLimit && res.Status != StatusOptimal {
		t.Errorf("status = %v", res.Status)
	}
}

// TestTransportation checks a classical balanced transportation problem.
func TestTransportation(t *testing.T) {
	// Supplies 20,30; demands 10,25,15. Costs:
	//   [8, 6, 10]
	//   [9, 12, 13]
	p := NewProblem()
	costs := [2][3]float64{{8, 6, 10}, {9, 12, 13}}
	vars := [2][3]int{}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			vars[i][j] = p.AddVar(costs[i][j])
		}
	}
	supplies := []float64{20, 30}
	demands := []float64{10, 25, 15}
	for i := 0; i < 2; i++ {
		terms := []Term{}
		for j := 0; j < 3; j++ {
			terms = append(terms, Term{vars[i][j], 1})
		}
		p.AddConstraint(terms, EQ, supplies[i])
	}
	for j := 0; j < 3; j++ {
		terms := []Term{}
		for i := 0; i < 2; i++ {
			terms = append(terms, Term{vars[i][j], 1})
		}
		p.AddConstraint(terms, EQ, demands[j])
	}
	res := solveOK(t, p)
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	// Known optimum: x12=20 (6*20), x21=10, x22=5, x23=15 -> 120+90+60+195=465.
	if math.Abs(res.Obj-465) > tol {
		t.Errorf("obj = %g, want 465", res.Obj)
	}
}

// TestRandomFeasibility: for random LPs with a known feasible point, the
// solver never reports infeasible, and returned solutions satisfy all
// constraints.
func TestRandomFeasibility(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		p := NewProblem()
		feas := make([]float64, n)
		for i := range feas {
			feas[i] = rng.Float64() * 5
			p.AddVar(rng.Float64()*4 - 2)
		}
		rows := make([][]Term, m)
		for r := 0; r < m; r++ {
			var terms []Term
			act := 0.0
			for v := 0; v < n; v++ {
				if rng.Float64() < 0.7 {
					c := rng.Float64()*4 - 2
					terms = append(terms, Term{v, c})
					act += c * feas[v]
				}
			}
			if len(terms) == 0 {
				terms = []Term{{0, 1}}
				act = feas[0]
			}
			rows[r] = terms
			// Make the row satisfied by feas.
			if rng.Intn(2) == 0 {
				p.AddConstraint(terms, LE, act+rng.Float64())
			} else {
				p.AddConstraint(terms, GE, act-rng.Float64())
			}
		}
		res, err := p.Solve(Options{})
		if err != nil {
			return false
		}
		if res.Status == StatusInfeasible {
			return false // a feasible point exists by construction
		}
		if res.Status != StatusOptimal {
			return true // unbounded is possible with random objectives
		}
		// Check feasibility of the returned point.
		for r, terms := range rows {
			act := 0.0
			for _, tm := range terms {
				act += tm.Coef * res.X[tm.Var]
			}
			c := constraintOf(p, r)
			switch c.Sense {
			case LE:
				if act > c.RHS+1e-6 {
					return false
				}
			case GE:
				if act < c.RHS-1e-6 {
					return false
				}
			}
		}
		for _, x := range res.X {
			if x < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// constraintOf exposes rows for the property test.
func constraintOf(p *Problem, i int) Constraint { return p.rows[i] }

// TestRandomOptimalityVsEnumeration compares the solver against brute
// force over constraint-intersection vertices on tiny LPs.
func TestRandomOptimalityVsEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		// 2 variables, bounded box + up to 3 random cuts.
		p := NewProblem()
		c0 := rng.Float64()*4 - 2
		c1 := rng.Float64()*4 - 2
		x := p.AddVar(c0)
		y := p.AddVar(c1)
		type row struct {
			a, b, rhs float64
		}
		rows := []row{{1, 0, 3}, {0, 1, 3}} // x<=3, y<=3
		for k := 0; k < 3; k++ {
			rows = append(rows, row{rng.Float64()*2 - 0.5, rng.Float64()*2 - 0.5, rng.Float64()*3 + 0.5})
		}
		for _, r := range rows {
			p.AddConstraint([]Term{{x, r.a}, {y, r.b}}, LE, r.rhs)
		}
		res, err := p.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusOptimal {
			continue
		}
		// Brute force over a fine grid (sufficient for verification).
		best := math.Inf(1)
		const steps = 150
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				px := 3 * float64(i) / steps
				py := 3 * float64(j) / steps
				ok := true
				for _, r := range rows {
					if r.a*px+r.b*py > r.rhs+1e-12 {
						ok = false
						break
					}
				}
				if ok {
					if v := c0*px + c1*py; v < best {
						best = v
					}
				}
			}
		}
		if res.Obj > best+1e-2 {
			t.Errorf("trial %d: solver obj %g worse than grid %g", trial, res.Obj, best)
		}
	}
}
