package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/greedy"
	"repro/internal/memo"
	"repro/internal/milp"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// TestMemoizedSearchMatchesUnmemoized is the differential guarantee of
// the cross-guess memo: over the workload-generator corpus, the memoized
// search must return bit-identical schedules, makespans and decision
// statistics (guess counts, failed guesses, last-accepted-guess
// parameters — i.e. the consumed guess sequence) to the unmemoized
// search. It also proves the cache is not vacuous: across the corpus at
// least one solve must register a hit.
func TestMemoizedSearchMatchesUnmemoized(t *testing.T) {
	totalHits := 0
	for _, fam := range workload.Families() {
		for seed := int64(1); seed <= 3; seed++ {
			for _, eps := range []float64{0.5, 0.33} {
				in := workload.MustGenerate(workload.Spec{
					Family: fam, Machines: 5, Jobs: 20, Bags: 8, Seed: seed,
				})
				memo, err := Solve(in, Options{Eps: eps, Speculate: 1})
				if err != nil {
					t.Fatalf("%s/%d eps=%g memoized: %v", fam, seed, eps, err)
				}
				raw, err := Solve(in, Options{Eps: eps, Speculate: 1, DisableMemo: true})
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

// TestMemoizedSpeculativeMatchesUnmemoizedSequential triangulates the two
// transparency guarantees: memoization plus speculation together must
// still reproduce the plain sequential, unmemoized search.
func TestMemoizedSpeculativeMatchesUnmemoizedSequential(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Adversarial, Machines: 5, Jobs: 20, Bags: 8, Seed: 1,
	})
	want, err := Solve(in, Options{Eps: 0.33, Speculate: 1, DisableMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(in, Options{Eps: 0.33, Speculate: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Errorf("makespan %v != %v", got.Makespan, want.Makespan)
	}
	if !reflect.DeepEqual(got.Stats.Decision(), want.Stats.Decision()) {
		t.Errorf("decision stats diverge:\ngot  %+v\nwant %+v", got.Stats.Decision(), want.Stats.Decision())
	}
	for j := range want.Schedule.Machine {
		if got.Schedule.Machine[j] != want.Schedule.Machine[j] {
			t.Fatalf("job %d assignment differs", j)
		}
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
	res, err := Solve(in, Options{Eps: 0.25, Speculate: 1})
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
	_, err := SolveContext(ctx, in, Options{Eps: 0.25, Speculate: 1})
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
	res, err := Solve(in, Options{Eps: 0.5, Speculate: 1})
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

// TestWallClockStopNotMemoized is the determinism-under-load contract of
// the shared cache: a solve whose MILPs stop on a wall-clock limit
// (here a one-nanosecond Options.MILP.TimeLimit, which stops every
// branch and bound before its first node) leaves no entry behind — no
// negative entry, nothing a snapshot could ship — so an identical second
// solve runs its pipelines again instead of replaying load-dependent
// rejections.
func TestWallClockStopNotMemoized(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{Family: workload.Bimodal, Machines: 5, Jobs: 20, Bags: 8, Seed: 37})
	shared := memo.New(1 << 20)
	// TimeLimit is a branch-and-bound limit, so the solve pins bnb:
	// under the default policy cfgdp would decide the guesses first.
	opt := Options{Eps: 0.5, Speculate: 1, Cache: shared, MILP: milp.Options{TimeLimit: time.Nanosecond},
		Oracle: oracle.Selection{Backend: oracle.KindBnB}}
	first, err := Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.FailedGuesses == 0 || first.Stats.PipelineRuns == 0 {
		t.Fatalf("first solve: %d failed guesses over %d pipeline runs, want every guess rejected by the time limit",
			first.Stats.FailedGuesses, first.Stats.PipelineRuns)
	}
	if st := shared.Stats(); st.Negative != 0 || st.Entries != 0 {
		t.Fatalf("wall-clock rejections were memoized: %+v", st)
	}
	var buf bytes.Buffer
	if written, _, err := shared.Export(&buf); err != nil || written != 0 {
		t.Fatalf("snapshot wrote %d records (err %v), want none", written, err)
	}
	second, err := Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.PipelineRuns != first.Stats.PipelineRuns || second.Stats.CacheHits != first.Stats.CacheHits {
		t.Fatalf("second solve ran %d pipelines with %d hits, want the first solve's %d and %d",
			second.Stats.PipelineRuns, second.Stats.CacheHits, first.Stats.PipelineRuns, first.Stats.CacheHits)
	}

	// The same solve without the time limit does commit entries: the
	// assertions above are about the wall clock, not an idle cache.
	opt.MILP = milp.Options{}
	if _, err := Solve(in, opt); err != nil {
		t.Fatal(err)
	}
	if shared.Len() == 0 {
		t.Fatal("a solve within its time limit committed nothing")
	}
}
