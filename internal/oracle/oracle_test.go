package oracle

import (
	"context"
	"errors"
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

// buildModel constructs the configuration program of one workload
// instance at its bag-LPT makespan guess, exactly as the pipeline would.
func buildModel(t *testing.T, mode cfgmilp.Mode, spec workload.Spec) *cfgmilp.Built {
	t.Helper()
	in := workload.MustGenerate(spec)
	ub, err := greedy.BagLPT(in)
	if err != nil {
		t.Fatal(err)
	}
	scaled, _ := round.ScaleRound(in, ub.Makespan(), 0.5)
	info, err := classify.Classify(scaled, 0.5, classify.Options{})
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
	return built
}

func testSpec() workload.Spec {
	return workload.Spec{Family: workload.Bimodal, Machines: 5, Jobs: 20, Bags: 8, Seed: 37}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindBnB, KindCfgDP} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	// "portfolio" named a retired backend; it is an unknown name like any
	// other, not an alias of a remaining one.
	for _, name := range []string{"simplex", "portfolio", ""} {
		if k, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) = %v, want an error", name, k)
		}
	}
}

func TestForComposition(t *testing.T) {
	var zero Kind
	if _, ok := For(zero).(BnB); !ok {
		t.Errorf("zero kind resolved to %T, want BnB", For(zero))
	}
	if _, ok := For(KindCfgDP).(CfgDP); !ok {
		t.Errorf("cfgdp resolved to %T, want CfgDP", For(KindCfgDP))
	}
}

// TestBackendsAgreeOnFeasibility runs every backend on the same feasible
// decomposed model and checks that each returns a plan satisfying the
// demand block.
func TestBackendsAgreeOnFeasibility(t *testing.T) {
	built := buildModel(t, cfgmilp.ModeDecomposed, testSpec())
	for _, bk := range []Backend{BnB{}, CfgDP{}} {
		plan, st, err := bk.Solve(context.Background(), built, Limits{})
		if err != nil {
			t.Fatalf("%s: %v", bk.Name(), err)
		}
		verifyPlan(t, bk.Name(), built, plan)
		if st.Backend == "" {
			t.Errorf("%s: stats missing backend attribution", bk.Name())
		}
	}
}

// verifyPlan checks a plan against the backend-neutral demand block: the
// oracle-layer exactness contract, as integer inequalities.
func verifyPlan(t *testing.T, name string, b *cfgmilp.Built, plan *cfgmilp.Plan) {
	t.Helper()
	sp := b.Space
	total := 0
	for p, c := range plan.XCount {
		if c < 0 {
			t.Fatalf("%s: negative multiplicity x[%d] = %d", name, p, c)
		}
		total += c
	}
	if total > b.Demand.Machines {
		t.Fatalf("%s: plan uses %d machines, instance has %d", name, total, b.Demand.Machines)
	}
	for _, row := range b.Demand.MLPrio {
		got := 0
		for p, c := range plan.XCount {
			got += c * sp.Patterns[p].ChiPrio(row.Bag, row.SizeIdx)
		}
		if got < row.Count {
			t.Errorf("%s: priority slot (bag %d, size %d) covered %d < %d", name, row.Bag, row.SizeIdx, got, row.Count)
		}
	}
	for _, row := range b.Demand.XTotals {
		got := 0
		for p, c := range plan.XCount {
			got += c * sp.XMult(&sp.Patterns[p], row.SizeIdx)
		}
		if got < row.Count {
			t.Errorf("%s: X slots of size %d covered %d < %d", name, row.SizeIdx, got, row.Count)
		}
	}
	for _, row := range b.Demand.SmallPrioBags {
		got := b.Demand.Machines - total // empty machines avoid every bag
		for p, c := range plan.XCount {
			if !sp.Patterns[p].ChiBag(row.Bag) {
				got += c
			}
		}
		if got < row.Count {
			t.Errorf("%s: bag %d avoidance covered %d < %d", name, row.Bag, got, row.Count)
		}
	}
}

func TestCfgDPRejectsPaperMode(t *testing.T) {
	built := buildModel(t, cfgmilp.ModePaper, testSpec())
	_, _, err := CfgDP{}.Solve(context.Background(), built, Limits{})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("cfgdp on a paper-mode model returned %v, want ErrUnsupported", err)
	}
	// bnb decides the same model.
	plan, _, err := BnB{}.Solve(context.Background(), built, Limits{})
	if err != nil {
		t.Fatalf("bnb on paper-mode model: %v", err)
	}
	verifyPlan(t, "bnb/paper", built, plan)
}

func TestCfgDPProvesInfeasibility(t *testing.T) {
	// Eight unit jobs of one bag on two machines: at most one job of the
	// bag per machine, so every guess is infeasible. Build the model at a
	// guess that survives classification but cannot be covered.
	in := sched.NewInstance(2)
	for i := 0; i < 8; i++ {
		in.AddJob(1, 0)
	}
	scaled, _ := round.ScaleRound(in, 4, 0.5)
	info, err := classify.Classify(scaled, 0.5, classify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := transform.Apply(scaled, info)
	sp, err := pattern.Enumerate(context.Background(), tr.Inst, tr.View, tr.Priority, pattern.Options{})
	if err != nil {
		t.Fatal(err)
	}
	built, err := cfgmilp.Build(context.Background(), tr.Inst, tr.View, tr.Priority, sp, cfgmilp.BuildOptions{})
	if err != nil {
		// Structural infeasibility at build time is equally fine for the
		// EPTAS; this test wants the DP-level proof, so require a model.
		t.Skipf("model infeasible at build time: %v", err)
	}
	_, _, dpErr := CfgDP{}.Solve(context.Background(), built, Limits{})
	if !errors.Is(dpErr, ErrInfeasible) {
		t.Fatalf("cfgdp returned %v, want ErrInfeasible", dpErr)
	}
	_, _, bnbErr := BnB{}.Solve(context.Background(), built, Limits{MILP: defaultMILP()})
	if !errors.Is(bnbErr, ErrInfeasible) {
		t.Fatalf("bnb returned %v, want ErrInfeasible", bnbErr)
	}
}

func TestCfgDPStateBudget(t *testing.T) {
	built := buildModel(t, cfgmilp.ModeDecomposed, workload.Spec{
		Family: workload.Adversarial, Machines: 8, Jobs: 40, Bags: 10, Seed: 3,
	})
	_, st, err := CfgDP{}.Solve(context.Background(), built, Limits{MaxStates: 1})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("cfgdp with a 1-state budget returned %v, want ErrLimit", err)
	}
	if st.States < 1 {
		t.Errorf("stats report %d states", st.States)
	}
}

func TestCfgDPCancellation(t *testing.T) {
	built := buildModel(t, cfgmilp.ModeDecomposed, testSpec())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := (CfgDP{}).Solve(ctx, built, Limits{}); !errors.Is(err, context.Canceled) {
		// Tiny solves may finish before the first poll interval; both
		// outcomes are acceptable, but an unrelated error is not.
		if err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("canceled cfgdp returned %v", err)
		}
	}
}

// defaultMILP mirrors the pipeline's resolved branch-and-bound limits.
func defaultMILP() milp.Options {
	return milp.Options{MaxNodes: 500, StopAtFirst: true}
}
