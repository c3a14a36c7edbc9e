package oracle

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cfgmilp"
	"repro/internal/scratch"
)

// TestCfgDPArenaReducesAllocs pins the point of Limits.Arena: repeated
// DP solves with a pooled arena must allocate substantially less than
// cold solves, and the results must be bit-identical with and without
// it. The comparison is relative (not an absolute ceiling) so the test
// is stable under the race detector's allocation overhead.
func TestCfgDPArenaReducesAllocs(t *testing.T) {
	built := buildModel(t, cfgmilp.ModeDecomposed, testSpec())

	wantPlan, wantStats, err := CfgDP{}.Solve(context.Background(), built, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	ar := new(scratch.Arena)
	plan, st, err := CfgDP{}.Solve(context.Background(), built, Limits{Arena: ar})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.XCount, wantPlan.XCount) {
		t.Fatalf("arena solve changed the plan:\n got %v\nwant %v", plan.XCount, wantPlan.XCount)
	}
	if st != wantStats {
		t.Fatalf("arena solve changed the stats:\n got %+v\nwant %+v", st, wantStats)
	}

	cold := testing.AllocsPerRun(50, func() {
		if _, _, err := (CfgDP{}).Solve(context.Background(), built, Limits{}); err != nil {
			t.Fatal(err)
		}
	})
	warm := testing.AllocsPerRun(50, func() {
		ar.Reset()
		if _, _, err := (CfgDP{}).Solve(context.Background(), built, Limits{Arena: ar}); err != nil {
			t.Fatal(err)
		}
	})
	if warm >= cold {
		t.Fatalf("arena solve allocates %.0f allocs/op, cold solve %.0f — arena buys nothing", warm, cold)
	}
	// The arena absorbs the solver's table and scratch allocations; what
	// remains is the retained plan (xs), the memo map and small fixed
	// overhead. Require at least a quarter of the cold allocations gone
	// so a silent un-wiring of the arena fails loudly.
	if warm > 0.75*cold {
		t.Fatalf("arena solve allocates %.0f allocs/op vs %.0f cold: expected >= 25%% reduction", warm, cold)
	}
}
