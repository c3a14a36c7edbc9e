package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/greedy"
	"repro/internal/workload"
)

// TestMemoizedSearchMatchesUnmemoized is the differential guarantee of
// the cross-guess memo: over the workload-generator corpus, the memoized
// search must return bit-identical schedules, makespans and decision
// statistics (guess counts, failed guesses, last-accepted-guess
// parameters — i.e. the consumed guess sequence) to the unmemoized
// search. It also proves the cache is not vacuous: across the corpus at
// least one solve must register a hit. The search never evaluates the
// top of the guess grid once a guess below it was accepted, so hits
// within one solve come only from guesses that scale-round alike, which
// the finer grid of eps 0.25 produces and eps 0.5 and 0.33 do not on
// this corpus.
func TestMemoizedSearchMatchesUnmemoized(t *testing.T) {
	totalHits := 0
	for _, fam := range workload.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, eps := range []float64{0.5, 0.33, 0.25} {
				in := workload.MustGenerate(workload.Spec{
					Family: fam, Machines: 5, Jobs: 20, Bags: 8, Seed: seed,
				})
				memo, err := Solve(in, Options{Eps: eps})
				if err != nil {
					t.Fatalf("%s/%d eps=%g memoized: %v", fam, seed, eps, err)
				}
				raw, err := Solve(in, Options{Eps: eps, DisableMemo: true})
				if err != nil {
					t.Fatalf("%s/%d eps=%g unmemoized: %v", fam, seed, eps, err)
				}
				if memo.Makespan != raw.Makespan {
					t.Errorf("%s/%d eps=%g: makespan %v (memo) != %v (raw)",
						fam, seed, eps, memo.Makespan, raw.Makespan)
				}
				if !reflect.DeepEqual(memo.Stats.Decision(), raw.Stats.Decision()) {
					t.Errorf("%s/%d eps=%g: decision stats diverge:\nmemo %+v\nraw  %+v",
						fam, seed, eps, memo.Stats.Decision(), raw.Stats.Decision())
				}
				for j := range raw.Schedule.Machine {
					if memo.Schedule.Machine[j] != raw.Schedule.Machine[j] {
						t.Errorf("%s/%d eps=%g: job %d on machine %d (memo) vs %d (raw)",
							fam, seed, eps, j, memo.Schedule.Machine[j], raw.Schedule.Machine[j])
						break
					}
				}
				if raw.Stats.CacheHits != 0 || raw.Stats.CacheMisses != 0 {
					t.Errorf("%s/%d eps=%g: unmemoized run reports cache traffic %d/%d",
						fam, seed, eps, raw.Stats.CacheHits, raw.Stats.CacheMisses)
				}
				totalHits += memo.Stats.CacheHits
			}
		}
	}
	if totalHits == 0 {
		t.Error("no solve in the corpus registered a cache hit; the memo never engages")
	}
}

// TestCacheHitOnStandardInstance pins a standard instance where the memo
// demonstrably engages: the binary search's later guesses land in the
// rounding equivalence class of earlier ones. (At this eps the guess
// grid is fine enough that adjacent consumed grid points share a
// scaled-rounded signature; coarser settings converge in so few guesses
// that every one lands in a distinct class.)
func TestCacheHitOnStandardInstance(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Adversarial, Machines: 5, Jobs: 20, Bags: 8, Seed: 1,
	})
	res, err := Solve(in, Options{Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits < 1 {
		t.Errorf("CacheHits = %d, want >= 1 (guesses %d, misses %d)",
			res.Stats.CacheHits, res.Stats.Guesses, res.Stats.CacheMisses)
	}
	if res.Stats.PipelineRuns >= res.Stats.Guesses {
		t.Errorf("PipelineRuns = %d not below Guesses = %d despite cache hits",
			res.Stats.PipelineRuns, res.Stats.Guesses)
	}
}

// TestSolveContextCanceled checks that an already-canceled context aborts
// before any real work and surfaces ctx.Err().
func TestSolveContextCanceled(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 5, Jobs: 20, Bags: 8, Seed: 37,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveContext(ctx, in, Options{Eps: 0.5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveContext with canceled ctx returned %v, want context.Canceled", err)
	}
}

// TestSolveContextTimeoutMidSolve checks that an expiring deadline aborts
// a solve in flight — the cancellation has to travel from the public
// entry point through the search and the pipeline into the MILP loop.
func TestSolveContextTimeoutMidSolve(t *testing.T) {
	// A chunky instance (a full sequential solve takes >100ms even on
	// fast hardware) with a deadline it cannot meet.
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 16, Jobs: 96, Bags: 24, Seed: 3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SolveContext(ctx, in, Options{Eps: 0.25})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveContext returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("canceled solve still took %s", elapsed)
	}
}

// TestPriorityCapLadderDegrades pins the degradation path: an instance
// whose theoretical b' explodes the pattern space must walk down the
// priority-cap ladder and succeed on a smaller rung, with Stats.BPrime
// reporting the rung that actually succeeded.
func TestPriorityCapLadderDegrades(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Uniform, Machines: 10, Jobs: 40, Bags: 20, Seed: 17,
	})
	res, err := Solve(in, Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fallback {
		t.Fatal("solve fell back to bag-LPT; the ladder never succeeded")
	}
	// The theoretical b' ((d*q+1)*q, capped at the 20 bags present)
	// explodes this instance's pattern space, so the accepted guess must
	// have come from one of the degraded rungs (cap 4, 2 or 1) — never
	// the theoretical rung.
	switch res.Stats.BPrime {
	case 4, 2, 1:
	default:
		t.Errorf("Stats.BPrime = %d, want a ladder rung (4, 2 or 1)", res.Stats.BPrime)
	}

	// At the bag-LPT upper-bound guess the first two rungs demonstrably
	// fail: the pipeline needs exactly three attempts and lands on b'=2.
	ub, err := greedy.BagLPT(in)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RunPipeline(in, ub.Makespan(), Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Attempts != 3 {
		t.Errorf("pipeline took %d ladder attempts, want 3 (caps 0 and 4 explode, 2 fits)", pr.Attempts)
	}
	if pr.Info.BPrime != 2 {
		t.Errorf("pipeline Info.BPrime = %d, want 2", pr.Info.BPrime)
	}
}
