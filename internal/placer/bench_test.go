package placer

import (
	"context"
	"testing"

	"repro/internal/cfgmilp"
	"repro/internal/classify"
	"repro/internal/greedy"
	"repro/internal/milp"
	"repro/internal/pattern"
	"repro/internal/round"
	"repro/internal/transform"
	"repro/internal/workload"
)

// benchInput runs everything up to the MILP once; the benchmark then
// replays placement (the integer-load accounting hot path) alone.
func benchInput(b *testing.B, float64Ref bool) Input {
	b.Helper()
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Skewed, Machines: 16, Jobs: 50, Bags: 25, Seed: 41,
	})
	ub, err := greedy.BagLPT(in)
	if err != nil {
		b.Fatal(err)
	}
	scaled, _ := round.ScaleRound(in, ub.Makespan(), 0.5)
	info, err := classify.Classify(scaled, 0.5, classify.Options{BPrimeOverride: 2})
	if err != nil {
		b.Fatal(err)
	}
	tr := transform.Apply(scaled, info)
	sp, err := pattern.Enumerate(context.Background(), tr.Inst, tr.View, tr.Priority, pattern.Options{})
	if err != nil {
		b.Fatal(err)
	}
	built, err := cfgmilp.Build(context.Background(), tr.Inst, tr.View, tr.Priority, sp, cfgmilp.BuildOptions{Mode: cfgmilp.ModeDecomposed})
	if err != nil {
		b.Fatal(err)
	}
	model, err := built.MILP(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	sol, err := milp.Solve(context.Background(), model, milp.Options{StopAtFirst: true, MaxNodes: 4000})
	if err != nil {
		b.Fatal(err)
	}
	if sol.Status != milp.StatusOptimal && sol.Status != milp.StatusFeasible {
		b.Fatalf("MILP status %v", sol.Status)
	}
	return Input{
		Inst:       tr.Inst,
		View:       tr.View,
		Prio:       tr.Priority,
		Space:      sp,
		Plan:       built.Decode(sol),
		Float64Ref: float64Ref,
	}
}

func benchPlace(b *testing.B, float64Ref bool) {
	inp := benchInput(b, float64Ref)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Place(inp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlaceFixed(b *testing.B)      { benchPlace(b, false) }
func BenchmarkPlaceFloat64Ref(b *testing.B) { benchPlace(b, true) }
