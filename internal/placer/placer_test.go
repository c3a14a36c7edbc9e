package placer

import (
	"context"
	"math"
	"testing"

	"repro/internal/cfgmilp"
	"repro/internal/classify"
	"repro/internal/greedy"
	"repro/internal/milp"
	"repro/internal/pattern"
	"repro/internal/round"
	"repro/internal/sched"
	"repro/internal/transform"
	"repro/internal/workload"
)

// pipeline runs everything up to and including the MILP and returns the
// placer input for the bag-LPT makespan guess.
func pipeline(t *testing.T, in *sched.Instance, eps float64, bprime int, mode cfgmilp.Mode) Input {
	t.Helper()
	ub, err := greedy.BagLPT(in)
	if err != nil {
		t.Fatal(err)
	}
	scaled, _ := round.ScaleRound(in, ub.Makespan(), eps)
	info, err := classify.Classify(scaled, eps, classify.Options{BPrimeOverride: bprime})
	if err != nil {
		t.Fatal(err)
	}
	tr := transform.Apply(scaled, info)
	sp, err := pattern.Enumerate(context.Background(), tr.Inst, tr.View, tr.Priority, pattern.Options{})
	if err != nil {
		t.Fatal(err)
	}
	built, err := cfgmilp.Build(context.Background(), tr.Inst, tr.View, tr.Priority, sp, cfgmilp.BuildOptions{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	model, err := built.MILP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := milp.Solve(context.Background(), model, milp.Options{StopAtFirst: true, MaxNodes: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != milp.StatusOptimal && sol.Status != milp.StatusFeasible {
		t.Fatalf("MILP status %v", sol.Status)
	}
	return Input{Inst: tr.Inst, View: tr.View, Prio: tr.Priority, Space: sp, Plan: built.Decode(sol)}
}

func TestPlaceProducesFeasibleSchedules(t *testing.T) {
	for _, fam := range workload.Families() {
		fam := fam
		t.Run(string(fam), func(t *testing.T) {
			in := workload.MustGenerate(workload.Spec{
				Family: fam, Machines: 8, Jobs: 32, Bags: 16, Seed: 5,
			})
			inp := pipeline(t, in, 0.5, 2, cfgmilp.ModeDecomposed)
			s, _, err := Place(inp)
			if err != nil {
				t.Fatalf("Place: %v", err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("invalid: %v", err)
			}
		})
	}
}

func TestPlacePaperMode(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 4, Jobs: 14, Bags: 6, Seed: 3,
	})
	inp := pipeline(t, in, 0.5, 2, cfgmilp.ModePaper)
	if !inp.Plan.HasY {
		t.Fatal("expected Y in paper mode")
	}
	s, _, err := Place(inp)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestPlaceAllJobsAssigned(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Geometric, Machines: 6, Jobs: 30, Bags: 12, Seed: 7,
	})
	inp := pipeline(t, in, 0.5, 2, cfgmilp.ModeDecomposed)
	s, _, err := Place(inp)
	if err != nil {
		t.Fatal(err)
	}
	for j, m := range s.Machine {
		if m < 0 {
			t.Errorf("job %d unassigned", j)
		}
	}
}

func TestPlaceHeightBounded(t *testing.T) {
	// The placed schedule of the transformed instance should stay within
	// T + O(eps) of the guess (Lemmas 8-11 combined).
	for seed := int64(1); seed <= 6; seed++ {
		in := workload.MustGenerate(workload.Spec{
			Family: workload.Uniform, Machines: 8, Jobs: 32, Bags: 16, Seed: seed,
		})
		inp := pipeline(t, in, 0.5, 2, cfgmilp.ModeDecomposed)
		s, _, err := Place(inp)
		if err != nil {
			t.Fatal(err)
		}
		limit := inp.View.Info.T + 4*inp.View.Info.Eps
		if mk := s.Makespan(); mk > limit+1e-9 {
			t.Errorf("seed %d: transformed makespan %.4f > %.4f", seed, mk, limit)
		}
	}
}

func TestLemma7SwapPreservesLoads(t *testing.T) {
	// Directly exercise the swap repair: craft a state with a conflict
	// and verify loads before/after.
	in := sched.NewInstance(2)
	// Two non-priority bags, equal sizes; bag 0 twice on machine 0.
	in.AddJob(1, 0)
	in.AddJob(1, 0)
	in.AddJob(1, 1)
	info, err := classify.Classify(in, 0.5, classify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	view, err := info.ViewOf(in)
	if err != nil {
		t.Fatal(err)
	}
	st := &state{
		in:     in,
		view:   view,
		prio:   []bool{false, false},
		sched:  sched.NewSchedule(in),
		loads:  newLoadVec(2, false, nil),
		bagsOn: []map[int]int{{}, {}},
		origin: map[int]int{},
	}
	st.assign(0, 0)
	st.assign(1, 0) // conflict: bag 0 twice on machine 0
	st.assign(2, 1)
	before := []float64{st.loads.at(0), st.loads.at(1)}
	st.repairLargeConflicts()
	if len(st.sched.Conflicts()) != 0 {
		t.Fatalf("conflict not repaired")
	}
	for m := range before {
		if math.Abs(st.loads.at(m)-before[m]) > 1e-9 {
			t.Errorf("machine %d load changed: %g -> %g", m, before[m], st.loads.at(m))
		}
	}
	if st.stats.SwapRepairs != 1 {
		t.Errorf("SwapRepairs = %d, want 1", st.stats.SwapRepairs)
	}
}

func TestGenericRepairTerminatesAndFixes(t *testing.T) {
	in := sched.NewInstance(3)
	in.AddJob(1, 0)
	in.AddJob(0.5, 0)
	in.AddJob(0.25, 0)
	info, err := classify.Classify(in, 0.5, classify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	view, err := info.ViewOf(in)
	if err != nil {
		t.Fatal(err)
	}
	st := &state{
		in:     in,
		view:   view,
		prio:   []bool{false},
		sched:  sched.NewSchedule(in),
		loads:  newLoadVec(3, false, nil),
		bagsOn: []map[int]int{{}, {}, {}},
		origin: map[int]int{},
	}
	// All three jobs of bag 0 on machine 0.
	st.assign(0, 0)
	st.assign(1, 0)
	st.assign(2, 0)
	if err := st.repairGeneric(); err != nil {
		t.Fatal(err)
	}
	if err := st.sched.Validate(); err != nil {
		t.Fatalf("still invalid: %v", err)
	}
	if st.stats.GenericMoves == 0 {
		t.Error("expected generic moves")
	}
}

func TestGenericRepairDetectsSaturation(t *testing.T) {
	// Bag with more jobs than machines: repair must fail loudly.
	in := sched.NewInstance(2)
	in.AddJob(1, 0)
	in.AddJob(1, 0)
	in.AddJob(1, 0)
	info, err := classify.Classify(in, 0.5, classify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	view, err := info.ViewOf(in)
	if err != nil {
		t.Fatal(err)
	}
	st := &state{
		in:     in,
		view:   view,
		prio:   []bool{false},
		sched:  sched.NewSchedule(in),
		loads:  newLoadVec(2, false, nil),
		bagsOn: []map[int]int{{}, {}},
		origin: map[int]int{},
	}
	st.assign(0, 0)
	st.assign(1, 0)
	st.assign(2, 1)
	if err := st.repairGeneric(); err == nil {
		t.Error("expected saturation error")
	}
}

func TestPlaceRejectsOversizedPlan(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Unit, Machines: 2, Jobs: 4, Bags: 2, Seed: 1,
	})
	inp := pipeline(t, in, 0.5, 0, cfgmilp.ModeDecomposed)
	// Corrupt the plan: demand more machines than exist.
	inp.Plan.XCount[0] += 10
	if _, _, err := Place(inp); err == nil {
		t.Error("expected error for oversized plan")
	}
}

func TestStatsMachinesUsed(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 6, Jobs: 18, Bags: 9, Seed: 2,
	})
	inp := pipeline(t, in, 0.5, 2, cfgmilp.ModeDecomposed)
	_, stats, err := Place(inp)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MachinesUsed < 0 || stats.MachinesUsed > in.Machines {
		t.Errorf("MachinesUsed = %d", stats.MachinesUsed)
	}
}
