package cfgmilp

import (
	"context"
	"testing"

	"repro/internal/classify"
	"repro/internal/milp"
	"repro/internal/pattern"
	"repro/internal/sched"
)

// buildRelatedModel classifies, enumerates and builds the related
// feasibility program of a small scaled speed instance (speeds 2,1,1 at
// eps 0.5: caps 3 and 1.5, large sizes 1.0 x2 and 0.6 x2, small area
// 0.2).
func buildRelatedModel(t *testing.T) (*sched.Instance, *classify.RelInfo, *pattern.RelSpace, *Built) {
	t.Helper()
	in := sched.NewRelatedInstance([]float64{2, 1, 1})
	for i, size := range []float64{1.0, 1.0, 0.6, 0.6, 0.2} {
		in.AddJob(size, i)
	}
	info, err := classify.Related(in, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := pattern.EnumerateRelated(context.Background(), info, pattern.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildRelated(context.Background(), in, info, sp)
	if err != nil {
		t.Fatal(err)
	}
	return in, info, sp, b
}

func TestBuildRelated(t *testing.T) {
	in, info, sp, b := buildRelatedModel(t)

	if b.Related == nil || b.Related.Info != info || b.Related.Space != sp {
		t.Fatal("Built.Related does not carry the layout it was built from")
	}
	if b.IntegerVars != sp.TotalPatterns() {
		t.Errorf("IntegerVars = %d, want one multiplicity per (class, pattern) = %d",
			b.IntegerVars, sp.TotalPatterns())
	}
	if b.Demand.Machines != in.Machines || b.Demand.SmallArea != info.SmallArea {
		t.Error("Demand block does not mirror the instance")
	}

	// The program must be integer-feasible, and its decoded plan must
	// cover every class's machines and every large size's demand.
	model, err := b.MILP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := milp.Solve(context.Background(), model, milp.Options{StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != milp.StatusOptimal && sol.Status != milp.StatusFeasible {
		t.Fatalf("status %v, want an integer solution (the caps admit a feasible layout)", sol.Status)
	}
	plan := b.Decode(sol)
	if plan.RelCounts == nil {
		t.Fatal("Decode of a related model did not fill RelCounts")
	}
	slots := make([]int, len(info.Sizes))
	for k, counts := range plan.RelCounts {
		machines := 0
		for p, c := range counts {
			if c < 0 {
				t.Fatalf("negative multiplicity %d (class %d)", c, k)
			}
			machines += c
			for si, n := range sp.Classes[k][p].Count {
				slots[si] += c * n
			}
		}
		if machines != info.ClassCount[k] {
			t.Errorf("class %d uses %d machines, has %d", k, machines, info.ClassCount[k])
		}
	}
	for si, demand := range info.SizeCount {
		if slots[si] < demand {
			t.Errorf("size %d: %d slots for %d jobs", si, slots[si], demand)
		}
	}
}

// TestBuildRelatedInfeasibleSize: a large size no configuration can
// host (bigger than every capacity) must fail at build time with the
// documented infeasibility error.
func TestBuildRelatedInfeasibleSize(t *testing.T) {
	in := sched.NewRelatedInstance([]float64{1, 1})
	in.AddJob(5.0, 0) // cap is 1.5; no pattern offers a slot
	info, err := classify.Related(in, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := pattern.EnumerateRelated(context.Background(), info, pattern.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildRelated(context.Background(), in, info, sp); err == nil {
		t.Fatal("BuildRelated accepted a size with no slots anywhere")
	}
}
