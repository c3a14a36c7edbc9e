package placer

import (
	"context"
	"testing"

	"repro/internal/cfgmilp"
	"repro/internal/classify"
	"repro/internal/milp"
	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/sched"
)

// solveRelated runs the whole related decision path — classify,
// enumerate, build, decide, place — on a prepared (singleton-bag,
// scaled) speed instance and returns the placed schedule with its
// classification.
func solveRelated(t *testing.T, in *sched.Instance, eps float64) (*sched.Schedule, *classify.RelInfo, Stats) {
	t.Helper()
	info, err := classify.Related(in, eps)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := pattern.EnumerateRelated(context.Background(), info, pattern.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfgmilp.BuildRelated(context.Background(), in, info, sp)
	if err != nil {
		t.Fatal(err)
	}
	model, err := b.MILP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := milp.Solve(context.Background(), model, milp.Options{StopAtFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != milp.StatusOptimal && sol.Status != milp.StatusFeasible {
		t.Fatalf("oracle status %v", sol.Status)
	}
	s, stats, err := PlaceRelated(RelatedInput{Inst: in, Info: info, Space: sp, Plan: b.Decode(sol)})
	if err != nil {
		t.Fatal(err)
	}
	return s, info, stats
}

func TestPlaceRelated(t *testing.T) {
	// Prepared scaled instance: speeds 2,1,1 (eps 0.5 → caps 3, 1.5),
	// large jobs 1.0 x2 + 0.6 x2, small 0.2 + 0.1; singleton bags.
	in := sched.NewRelatedInstance([]float64{2, 1, 1})
	for i, size := range []float64{1.0, 1.0, 0.6, 0.6, 0.2, 0.1} {
		in.AddJob(size, i)
	}
	s, info, _ := solveRelated(t, in, 0.5)

	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	// Every job placed, and every machine's exact load stays within its
	// class capacity plus at most one small-job overshoot (< the large
	// threshold) — the placement's documented contribution to the
	// 1+O(eps) bound.
	loads := make([]numeric.Fx, in.Machines)
	for j, m := range s.Machine {
		if m < 0 || m >= in.Machines {
			t.Fatalf("job %d unplaced (machine %d)", j, m)
		}
		loads[m] += info.JobFx[j]
	}
	slack := numeric.FromFloat(info.LargeThreshold)
	for m, load := range loads {
		cap := info.CapFx[info.MachClass[m]]
		if load > cap+slack {
			t.Errorf("machine %d load %v exceeds cap %v plus one small job", m, load, cap)
		}
	}
}

// TestPlaceRelatedSurplusSlots: more reserved slots than jobs of a size
// must leave slots empty, not fail.
func TestPlaceRelatedSurplusSlots(t *testing.T) {
	// One large job on two fast machines: any feasible plan that spends
	// two non-empty configurations has surplus slots.
	in := sched.NewRelatedInstance([]float64{1, 1})
	for i, size := range []float64{0.9, 0.1} {
		in.AddJob(size, i)
	}
	s, _, _ := solveRelated(t, in, 0.5)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceRelatedBadPlan: a plan using more machines than a class has
// must be rejected with a diagnostic, not placed.
func TestPlaceRelatedBadPlan(t *testing.T) {
	in := sched.NewRelatedInstance([]float64{1, 1})
	in.AddJob(0.9, 0)
	info, err := classify.Related(in, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := pattern.EnumerateRelated(context.Background(), info, pattern.Options{})
	if err != nil {
		t.Fatal(err)
	}
	over := &cfgmilp.Plan{RelCounts: [][]int{{len(sp.Classes[0]) + 3}}}
	if _, _, err := PlaceRelated(RelatedInput{Inst: in, Info: info, Space: sp, Plan: over}); err == nil {
		t.Fatal("PlaceRelated accepted a plan overusing a class")
	}
	neg := &cfgmilp.Plan{RelCounts: [][]int{{-1}}}
	if _, _, err := PlaceRelated(RelatedInput{Inst: in, Info: info, Space: sp, Plan: neg}); err == nil {
		t.Fatal("PlaceRelated accepted a negative multiplicity")
	}
}
