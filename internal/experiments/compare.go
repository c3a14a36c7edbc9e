package experiments

import (
	"time"

	"repro/internal/baselines"
	"repro/internal/cfgmilp"
	"repro/internal/core"
	"repro/internal/milp"
	"repro/internal/sched"
	"repro/internal/workload"
)

func init() {
	register("B1", runB1)
	register("A1", runA1)
	register("A2", runA2)
}

// runB1 compares all algorithms across the workload families, reporting
// makespan ratios to the combinatorial lower bound.
func runB1(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "B1",
		Title:  "Algorithm comparison across workload families",
		Claim:  "the EPTAS is never worse than bag-LPT, the fallback it returns when its own schedule is no better; in full mode both EPTAS columns equal bag-LPT on all eight families, and plain LPT beats them on uniform, bimodal, geometric, skewed and manylarge (1.057 against 1.160 on bimodal)",
		Header: []string{"family", "EPTAS(0.5)", "EPTAS(0.33)", "bag-LPT", "LPT", "greedy", "round-robin"},
	}
	seeds := cfg.seeds(3, 1)
	n, m, b := 40, 8, 10
	if cfg.Quick {
		n, m, b = 24, 6, 8
	}
	for _, fam := range workload.Families() {
		sums := make([]float64, 6)
		counts := 0
		for seed := 0; seed < seeds; seed++ {
			in := workload.MustGenerate(workload.Spec{Family: fam, Machines: m, Jobs: n, Bags: b, Seed: int64(200 + seed)})
			lb := sched.LowerBound(in)
			if lb <= 0 {
				continue
			}
			r1, err := core.Solve(in, core.Options{Eps: 0.5})
			if err != nil {
				return nil, err
			}
			r2, err := core.Solve(in, core.Options{Eps: 0.33})
			if err != nil {
				return nil, err
			}
			bl, err := baselines.BagLPT(in)
			if err != nil {
				return nil, err
			}
			lpt, err := baselines.LPT(in)
			if err != nil {
				return nil, err
			}
			gr, err := baselines.Greedy(in)
			if err != nil {
				return nil, err
			}
			rr, err := baselines.RoundRobin(in)
			if err != nil {
				return nil, err
			}
			for i, mk := range []float64{
				r1.Makespan, r2.Makespan, bl.Makespan(), lpt.Makespan(), gr.Makespan(), rr.Makespan(),
			} {
				sums[i] += mk / lb
			}
			counts++
		}
		row := []string{string(fam)}
		for _, s := range sums {
			row = append(row, f3(s/float64(counts)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "Cells are average makespan / combinatorial lower bound (1.000 means provably optimal); lower is better.")
	return t, nil
}

// runA1 is the model ablation: the faithful paper MILP (with y variables
// and the constraint (7) integral subset) versus the decomposed x-only
// model, on instances small enough for both.
func runA1(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "A1",
		Title:  "Ablation — paper MILP vs decomposed MILP",
		Claim:  "both model flavours land in the same quality band; the decomposed model is much cheaper because it avoids the per-pattern y block",
		Header: []string{"instance", "mode", "makespan/LB", "integer vars", "MILP nodes", "time"},
	}
	seeds := cfg.seeds(3, 2)
	for seed := 0; seed < seeds; seed++ {
		in := workload.MustGenerate(workload.Spec{
			Family: workload.Bimodal, Machines: 4, Jobs: 16, Bags: 5, Seed: int64(300 + seed),
		})
		lb := sched.LowerBound(in)
		for _, mode := range []cfgmilp.Mode{cfgmilp.ModeDecomposed, cfgmilp.ModePaper} {
			start := time.Now()
			res, err := core.Solve(in, core.Options{
				Eps:  0.5,
				Mode: mode,
				MILP: milpOptions(mode),
			})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				workload.Spec{Family: workload.Bimodal, Machines: 4, Jobs: 16, Bags: 5, Seed: int64(300 + seed)}.Name(),
				mode.String(),
				f3(res.Makespan / lb),
				d(res.Stats.IntegerVars),
				d(res.Stats.MILPNodes),
				ms(time.Since(start).Seconds()),
			})
		}
	}
	return t, nil
}

func milpOptions(mode cfgmilp.Mode) (o milp.Options) {
	if mode == cfgmilp.ModePaper {
		o.MaxNodes = 4000
	}
	return o
}

// runA2 ablates the branch-and-bound rounding heuristic: without it, the
// configuration program needs real tree search; with it, most guesses are
// decided at the root node.
func runA2(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "A2",
		Title:  "Ablation — largest-remainder rounding heuristic in the MILP",
		Claim:  "the sum-preserving rounding heuristic decides most feasibility MILPs at the root; disabling it multiplies the node count (and can push hard guesses into the solver's budget)",
		Header: []string{"instance", "rounding", "makespan/LB", "MILP nodes", "failed guesses", "time"},
	}
	seeds := cfg.seeds(3, 2)
	for seed := 0; seed < seeds; seed++ {
		spec := workload.Spec{
			Family: workload.Uniform, Machines: 7, Jobs: 35, Bags: 12, Seed: int64(400 + seed),
		}
		in := workload.MustGenerate(spec)
		lb := sched.LowerBound(in)
		for _, disable := range []bool{false, true} {
			start := time.Now()
			res, err := core.Solve(in, core.Options{
				Eps:  0.5,
				MILP: milp.Options{DisableRounding: disable},
			})
			if err != nil {
				return nil, err
			}
			label := "on"
			if disable {
				label = "off"
			}
			t.Rows = append(t.Rows, []string{
				spec.Name(), label,
				f3(res.Makespan / lb),
				d(res.Stats.MILPNodes),
				d(res.Stats.FailedGuesses),
				ms(time.Since(start).Seconds()),
			})
		}
	}
	return t, nil
}
