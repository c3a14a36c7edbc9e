package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/greedy"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/workload"
)

func adaptiveInstance(t testing.TB, seed int64) *sched.Instance {
	t.Helper()
	return workload.MustGenerate(workload.Spec{
		Family: "geometric", Machines: 4, Jobs: 16, Bags: 6, Seed: seed,
	})
}

// TestAdaptiveColdModelIsTransparent: adaptive mode against a cold
// model must keep the requested configuration and return the
// bit-identical schedule and decision stats of a plain solve.
func TestAdaptiveColdModelIsTransparent(t *testing.T) {
	in := adaptiveInstance(t, 7)
	plain, err := Solve(in, Options{Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Solve(in, Options{
		Eps: 0.25, Adaptive: true, Planner: plan.NewModel(),
		Deadline: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Schedule.Machine, adaptive.Schedule.Machine) {
		t.Fatal("cold-model adaptive solve diverged from the plain solve")
	}
	if !reflect.DeepEqual(plain.Stats.Decision(), adaptive.Stats.Decision()) {
		t.Fatal("cold-model adaptive decision stats diverged")
	}
	if adaptive.Quality.Degraded || adaptive.Quality.Rung != plan.RungEPTAS {
		t.Fatalf("cold-model adaptive solve must not degrade: %+v", adaptive.Quality)
	}
}

// TestAdaptiveTightDeadlineDegradesToHeuristic: once the model knows
// the eps rungs are too slow, a tight deadline lands on the bag-LPT
// rung and the answer is bit-identical to the baseline heuristic, with
// its bound reported.
func TestAdaptiveTightDeadlineDegradesToHeuristic(t *testing.T) {
	in := adaptiveInstance(t, 7)

	m := plan.NewModel()
	size := plan.SizeClass(len(in.Jobs))
	// Teach the model that every eps rung takes ~100ms at this size.
	for _, eps := range append([]float64{0.25}, plan.EpsGrid...) {
		m.Observe(plan.Key{Family: "bags", Size: size, Rung: plan.RungEPTAS,
			EpsIdx: plan.EpsIndex(eps), Backend: "default"}, 100*time.Millisecond)
	}

	res, err := Solve(in, Options{
		Eps: 0.25, Adaptive: true, Planner: m, Deadline: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := res.Quality
	if q.Rung != plan.RungLPT || !q.Degraded {
		t.Fatalf("tight deadline must degrade to the LPT rung: %+v", q)
	}
	wantBound := plan.HeuristicBound("bags", in.Machines, plan.RungLPT)
	if q.Bound != wantBound && q.Bound != 1 {
		t.Fatalf("degraded response must carry the heuristic bound %g (or 1 if optimal), got %g", wantBound, q.Bound)
	}
	base, err := greedy.BagLPT(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Schedule.Machine, base.Machine) {
		t.Fatal("LPT-rung schedule must match the bag-LPT baseline")
	}
	if res.Makespan > wantBound*res.LowerBound {
		t.Fatalf("heuristic answer violates its own bound: %g > %g*%g", res.Makespan, wantBound, res.LowerBound)
	}
}

// TestAdaptiveUnattainable: a quality floor that excludes every rung
// meeting the deadline refuses with plan.ErrUnattainable.
func TestAdaptiveUnattainable(t *testing.T) {
	in := adaptiveInstance(t, 3)
	m := plan.NewModel()
	size := plan.SizeClass(len(in.Jobs))
	for _, eps := range append([]float64{0.25}, plan.EpsGrid...) {
		m.Observe(plan.Key{Family: "bags", Size: size, Rung: plan.RungEPTAS,
			EpsIdx: plan.EpsIndex(eps), Backend: "default"}, time.Second)
	}
	_, err := Solve(in, Options{
		Eps: 0.25, Adaptive: true, Planner: m,
		Deadline: 2 * time.Millisecond, MinQuality: 1.95,
	})
	if !errors.Is(err, plan.ErrUnattainable) {
		t.Fatalf("want ErrUnattainable, got %v", err)
	}
	// A contradictory floor (finer than the request itself) refuses
	// even without a deadline.
	_, err = Solve(in, Options{
		Eps: 0.25, Adaptive: true, Planner: m, MinQuality: 1.1,
	})
	if !errors.Is(err, plan.ErrUnattainable) {
		t.Fatalf("contradictory floor: want ErrUnattainable, got %v", err)
	}
}

// TestQualityOnPlainSolve: every result carries a Quality block, even
// without a planner.
func TestQualityOnPlainSolve(t *testing.T) {
	in := adaptiveInstance(t, 11)
	res, err := Solve(in, Options{Eps: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	q := res.Quality
	if q.Rung != plan.RungEPTAS {
		t.Fatalf("plain solve rung = %q", q.Rung)
	}
	if q.Bound != 1.3 && q.Bound != 1 {
		t.Fatalf("plain solve bound = %g, want 1.3 (or 1 if provably optimal)", q.Bound)
	}
	if q.EpsUsed != 0.3 || q.PlannerTime != 0 {
		t.Fatalf("plain solve quality %+v", q)
	}
}

// TestHeuristicRungsDirect: forcing each heuristic rung reproduces the
// corresponding baseline and reports its documented bound.
func TestHeuristicRungsDirect(t *testing.T) {
	in := adaptiveInstance(t, 5)

	lpt, err := Solve(in, Options{Eps: 0.25, Heuristic: plan.RungLPT})
	if err != nil {
		t.Fatal(err)
	}
	base, err := greedy.BagLPT(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lpt.Schedule.Machine, base.Machine) {
		t.Fatal("forced LPT rung must match the baseline")
	}
	if lpt.Quality.Rung != plan.RungLPT || lpt.Quality.Degraded {
		t.Fatalf("forced rung is the requested rung, not a degradation: %+v", lpt.Quality)
	}

	gr, err := Solve(in, Options{Eps: 0.25, Heuristic: plan.RungGreedy})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(in.Jobs))
	for i := range order {
		order[i] = i
	}
	gbase, err := greedy.ListSchedule(in, order)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gr.Schedule.Machine, gbase.Machine) {
		t.Fatal("forced greedy rung must match the baseline")
	}
	wantBound := plan.HeuristicBound("bags", in.Machines, plan.RungGreedy)
	if gr.Quality.Bound != wantBound && gr.Quality.Bound != 1 {
		t.Fatalf("greedy bound = %g, want %g", gr.Quality.Bound, wantBound)
	}
	if gr.Makespan > wantBound*gr.LowerBound {
		t.Fatalf("greedy answer violates its bound: %g > %g*%g", gr.Makespan, wantBound, gr.LowerBound)
	}

	if _, err := Solve(in, Options{Eps: 0.25, Heuristic: "nope"}); err == nil {
		t.Fatal("unknown heuristic rung must be rejected")
	}
}

// TestObserveFeedsModel: a solve with a planner attached teaches the
// model, and a later adaptive solve keys its decision by the new
// version.
func TestObserveFeedsModel(t *testing.T) {
	in := adaptiveInstance(t, 9)
	m := plan.NewModel()
	if _, err := Solve(in, Options{Eps: 0.4, Planner: m}); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if st.Observations != 1 || st.Cells != 1 {
		t.Fatalf("solve must observe exactly once: %+v", st)
	}
	k := plan.Key{Family: "bags", Size: plan.SizeClass(len(in.Jobs)),
		Rung: plan.RungEPTAS, EpsIdx: plan.EpsIndex(0.4), Backend: "default"}
	if _, ok := m.Predict(k); !ok {
		t.Fatalf("observation landed under the wrong key")
	}
}
