package bagsched

// Plan-differential tests of the adaptive-solving seam (the `make
// plan-diff` gate):
//
//   - Attaching a cost model with adaptive mode off must be invisible:
//     on every committed fixture, for both oracle backends (and the
//     related family on speed fixtures), the solve with a Planner
//     attached is bit-for-bit the plain solve — makespan, schedule,
//     lower bound, decision statistics and the Quality block — even
//     though the model demonstrably observes the solve's latency. This
//     is the contract that keeps the backend/family/resolve/shard
//     differential gates meaningful after the adaptive layer landed.
//   - With a trained model and a deadline far below the predicted
//     search cost, adaptive solving must land on exactly the rung the
//     ladder promises (bag-LPT before greedy), produce the identical
//     schedule the public SolveBagLPT heuristic returns, and report
//     that rung's theorem bound — which the answer is checked against.

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/plan"
)

func TestPlanAdaptiveOffBitIdentical(t *testing.T) {
	files := instanceFixtures(t)
	if len(files) == 0 {
		t.Fatal("no fixtures under testdata/")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			in := readFixture(t, path)
			var famOpt []Option
			if !in.Uniform() {
				famOpt = []Option{WithFamily(FamilyRelated)}
			}
			for _, bc := range backendCases {
				base := append(append([]Option{}, famOpt...), bc.opts...)
				ref, err := SolveEPTAS(in, 0.5, base...)
				if err != nil {
					t.Fatalf("%s plain: %v", bc.name, err)
				}
				m := NewPlanModel()
				got, err := SolveEPTAS(in, 0.5, append(append([]Option{}, base...), WithPlanner(m))...)
				if err != nil {
					t.Fatalf("%s with planner: %v", bc.name, err)
				}
				if got.Makespan != ref.Makespan {
					t.Errorf("%s: attaching a planner changed the makespan: %.17g vs %.17g",
						bc.name, got.Makespan, ref.Makespan)
				}
				if got.LowerBound != ref.LowerBound {
					t.Errorf("%s: attaching a planner changed the lower bound: %.17g vs %.17g",
						bc.name, got.LowerBound, ref.LowerBound)
				}
				if !reflect.DeepEqual(got.Schedule.Machine, ref.Schedule.Machine) {
					t.Errorf("%s: attaching a planner changed the schedule", bc.name)
				}
				if !reflect.DeepEqual(got.Stats.Decision(), ref.Stats.Decision()) {
					t.Errorf("%s: attaching a planner changed decision stats:\n%+v\nvs\n%+v",
						bc.name, got.Stats.Decision(), ref.Stats.Decision())
				}
				if !reflect.DeepEqual(got.Quality, ref.Quality) {
					t.Errorf("%s: attaching a planner changed the quality block:\n%+v\nvs\n%+v",
						bc.name, got.Quality, ref.Quality)
				}
				// The model must really have been in the loop: observation is
				// result-transparent, not skipped.
				if st := m.Snapshot(); st.Observations == 0 {
					t.Errorf("%s: attached planner observed nothing", bc.name)
				}
			}
		})
	}
}

// TestPlanAdaptiveTightDeadlineLPT trains the model to believe every
// eptas rung costs 250ms, then asks for a 5ms solve: the planner must
// degrade to the bag-LPT rung, whose answer is bit-identical to the
// public SolveBagLPT heuristic and carries that rung's theorem bound.
func TestPlanAdaptiveTightDeadlineLPT(t *testing.T) {
	in := readFixture(t, filepath.Join("testdata", "bimodal_m6_n24.json"))
	m := NewPlanModel()
	size := plan.SizeClass(len(in.Jobs))
	for _, eps := range append([]float64{0.25}, plan.EpsGrid...) {
		m.Observe(plan.Key{Family: "bags", Size: size, Rung: plan.RungEPTAS,
			EpsIdx: plan.EpsIndex(eps), Backend: "bnb"}, 250*time.Millisecond)
	}

	res, err := SolveEPTAS(in, 0.25,
		WithPlanner(m), WithAdaptive(), WithDeadline(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.Rung != plan.RungLPT || !res.Quality.Degraded {
		t.Fatalf("tight deadline should degrade to the bag-LPT rung, got %+v", res.Quality)
	}

	lpt, err := SolveBagLPT(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != lpt.Makespan() {
		t.Fatalf("planned LPT rung makespan %.17g differs from SolveBagLPT's %.17g",
			res.Makespan, lpt.Makespan())
	}
	if !reflect.DeepEqual(res.Schedule.Machine, lpt.Machine) {
		t.Fatal("planned LPT rung schedule differs from SolveBagLPT")
	}

	wantBound := plan.HeuristicBound("bags", in.Machines, plan.RungLPT)
	if res.Makespan <= res.LowerBound {
		wantBound = 1 // provably optimal answers report the exact bound
	}
	if res.Quality.Bound != wantBound {
		t.Fatalf("LPT rung bound %g, want %g", res.Quality.Bound, wantBound)
	}
	if res.Makespan > res.Quality.Bound*res.LowerBound*(1+1e-9) {
		t.Fatalf("answer violates its reported bound: %.17g > %g * %.17g",
			res.Makespan, res.Quality.Bound, res.LowerBound)
	}

	// The decision is deterministic: the repeat observes only the
	// heuristic rung (never the eptas cells the decision reads), so a
	// second planned solve reproduces the first bit for bit.
	again, err := SolveEPTAS(in, 0.25,
		WithPlanner(m), WithAdaptive(), WithDeadline(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if again.Quality.Rung != res.Quality.Rung || again.Makespan != res.Makespan ||
		!reflect.DeepEqual(again.Schedule.Machine, res.Schedule.Machine) {
		t.Fatal("repeated planned solve diverged")
	}
}
