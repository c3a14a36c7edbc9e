package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cfgmilp"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/pattern"
	"repro/internal/round"
	"repro/internal/sched"
	"repro/internal/transform"
	"repro/internal/workload"
)

func init() {
	register("L1", runL1)
	register("L6", runL6)
	register("L7", runL7)
	register("L8", runL8)
	register("L9", runL9)
	register("L11", runL11)
}

// runL1 verifies the Lemma 1 band selection: the chosen medium band's
// area is at most ~eps^2 * m (times the 1+eps rounding slack).
func runL1(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "L1",
		Title:  "Lemma 1 — medium band selection",
		Claim:  "there is k <= 1/eps^2 with band area sum{p_j in [eps^{k+1}, eps^k)} <= eps^2 * m (we measure against eps^2*(1+eps)*m after rounding)",
		Header: []string{"family", "eps", "k", "band area", "bound", "ok"},
	}
	for _, fam := range workload.Families() {
		for _, eps := range []float64{0.5, 0.33} {
			in := workload.MustGenerate(workload.Spec{Family: fam, Machines: 8, Jobs: 48, Bags: 12, Seed: 3})
			ub, err := greedy.BagLPT(in)
			if err != nil {
				return nil, err
			}
			scaled, _ := round.ScaleRound(in, ub.Makespan(), eps)
			info, err := classify.Classify(scaled, eps, classify.Options{})
			if err != nil {
				return nil, err
			}
			bound := eps * eps * (1 + eps) * float64(in.Machines)
			t.Rows = append(t.Rows, []string{
				string(fam), f3(eps), d(info.K), f4(info.BandArea), f4(bound), yes(info.BandArea <= bound+1e-9),
			})
		}
	}
	return t, nil
}

// runL6 verifies the Lemma 6 shape: the MILP's pattern count and integer
// dimension are functions of eps only — they grow as eps shrinks and stay
// flat as n grows.
func runL6(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "L6",
		Title:  "Lemma 6 — MILP size is a function of eps, not of n",
		Claim:  "the number of patterns and integral variables is bounded by a function of 1/eps alone (2^{O(poly(1/eps))}); doubling n leaves it unchanged",
		Header: []string{"eps", "n", "patterns", "integer vars", "priority bags", "q", "d"},
	}
	epsSweep := []float64{0.75, 0.6, 0.5, 0.4}
	if !cfg.Quick {
		epsSweep = append(epsSweep, 0.35)
	}
	for _, eps := range epsSweep {
		for _, n := range []int{24, 48} {
			in := workload.MustGenerate(workload.Spec{Family: workload.Bimodal, Machines: 8, Jobs: n, Bags: 10, Seed: 9})
			ub, err := greedy.BagLPT(in)
			if err != nil {
				return nil, err
			}
			// Build (but do not solve) the model: L6 is about its size.
			scaled, _ := round.ScaleRound(in, ub.Makespan(), eps)
			info, err := classify.Classify(scaled, eps, classify.Options{})
			if err != nil {
				return nil, err
			}
			tr := transform.Apply(scaled, info)
			sp, err := pattern.Enumerate(context.Background(), tr.Inst, tr.View, tr.Priority, pattern.Options{Limit: 2_000_000})
			if err != nil {
				return nil, fmt.Errorf("L6: enumerate eps=%g n=%d: %w", eps, n, err)
			}
			built, err := cfgmilp.Build(context.Background(), tr.Inst, tr.View, tr.Priority, sp, cfgmilp.BuildOptions{Mode: cfgmilp.ModeDecomposed})
			if err != nil {
				return nil, fmt.Errorf("L6: build eps=%g n=%d: %w", eps, n, err)
			}
			t.Rows = append(t.Rows, []string{
				f3(eps), d(n), d(len(sp.Patterns)), d(built.IntegerVars),
				d(countBool(tr.Priority)), d(info.Q), d(info.D),
			})
		}
	}
	t.Notes = append(t.Notes, "Pattern counts vary slightly with n only because the instance realizes different subsets of the eps-bounded size/bag universe; the eps-driven growth dominates.")
	return t, nil
}

func countBool(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// runL7 measures the Lemma 7 swap repair: X-slot conflicts occur, every
// one is repaired by a same-size swap (load vector unchanged), and the
// generic fallback stays unused.
func runL7(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "L7",
		Title:  "Lemma 7 — same-size swap repair of X-slot conflicts",
		Claim:  "conflicts created when filling anonymous X slots are repaired in polynomial time by swapping equal-size jobs, leaving machine loads unchanged",
		Header: []string{"family", "runs", "X conflicts", "swap repairs", "origin moves", "generic moves"},
	}
	seeds := cfg.seeds(5, 2)
	for _, fam := range workload.Families() {
		var conflicts, swaps, origin, generic int
		runs := 0
		for seed := 0; seed < seeds; seed++ {
			in := workload.MustGenerate(workload.Spec{Family: fam, Machines: 16, Jobs: 50, Bags: 25, Seed: int64(40 + seed)})
			ub, err := greedy.BagLPT(in)
			if err != nil {
				return nil, err
			}
			pr, err := core.RunPipeline(in, ub.Makespan(), core.Options{Eps: 0.5, BPrimeOverride: 2})
			if err != nil {
				continue
			}
			runs++
			conflicts += pr.PlaceStats.XConflicts
			swaps += pr.PlaceStats.SwapRepairs
			origin += pr.PlaceStats.OriginMoves
			generic += pr.PlaceStats.GenericMoves
		}
		t.Rows = append(t.Rows, []string{string(fam), d(runs), d(conflicts), d(swaps), d(origin), d(generic)})
	}
	t.Notes = append(t.Notes, "Generic moves are the safety-net repair; the Lemma 7/11 machinery should leave (almost) nothing for it.")
	return t, nil
}

// runL8 verifies the Lemma 8 bag-LPT bounds on random inputs: final
// spread <= pmax and max load <= h + A/m' + pmax.
func runL8(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "L8",
		Title:  "Lemma 8 — bag-LPT balance bounds",
		Claim:  "bag-LPT on m' equal-height machines keeps any two machines within pmax of each other and the maximum at most h + A/m' + pmax",
		Header: []string{"machines", "bags", "trials", "max spread / pmax", "worst slack to bound", "ok"},
	}
	trials := cfg.seeds(200, 50)
	rng := rand.New(rand.NewSource(77))
	for _, m := range []int{4, 8, 16} {
		for _, nBags := range []int{2, 6, 12} {
			worstSpread, worstSlack := 0.0, math.Inf(1)
			ok := true
			for trial := 0; trial < trials; trial++ {
				h := rng.Float64()
				loads := make([]float64, m)
				for i := range loads {
					loads[i] = h
				}
				pmax, area := 0.0, 0.0
				bags := make([][]greedy.Item, nBags)
				key := 0
				for b := range bags {
					cnt := 1 + rng.Intn(m)
					for k := 0; k < cnt; k++ {
						size := rng.Float64() * 0.3
						bags[b] = append(bags[b], greedy.Item{Key: key, Size: size})
						key++
						if size > pmax {
							pmax = size
						}
						area += size
					}
				}
				if _, err := greedy.AssignBagLPT(loads, bags); err != nil {
					return nil, err
				}
				minL, maxL := loads[0], loads[0]
				for _, l := range loads {
					minL = math.Min(minL, l)
					maxL = math.Max(maxL, l)
				}
				spread := maxL - minL
				bound := h + area/float64(m) + pmax
				if pmax > 0 && spread/pmax > worstSpread {
					worstSpread = spread / pmax
				}
				if s := bound - maxL; s < worstSlack {
					worstSlack = s
				}
				if spread > pmax+1e-9 || maxL > bound+1e-9 {
					ok = false
				}
			}
			t.Rows = append(t.Rows, []string{
				d(m), d(nBags), d(trials), f4(worstSpread), f4(worstSlack), yes(ok),
			})
		}
	}
	return t, nil
}

// runL9 measures the small-job placement height (Lemmas 8-10 combined):
// the schedule of the transformed instance stays within 1+O(eps) of the
// guess.
func runL9(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "L9",
		Title:  "Lemmas 9/10 — small-job placement keeps height 1+O(eps)",
		Claim:  "after group-bag-LPT and per-group bag-LPT the transformed schedule has makespan at most (1+O(eps)) * guess; the MILP height bound is T = 1+2eps+eps^2",
		Header: []string{"family", "eps", "guess-relative height", "T", "height <= T+2eps"},
	}
	for _, fam := range workload.Families() {
		for _, eps := range []float64{0.5, 0.4} {
			in := workload.MustGenerate(workload.Spec{Family: fam, Machines: 12, Jobs: 48, Bags: 24, Seed: 13})
			ub, err := greedy.BagLPT(in)
			if err != nil {
				return nil, err
			}
			pr, err := core.RunPipeline(in, ub.Makespan(), core.Options{Eps: eps})
			if err != nil {
				t.Rows = append(t.Rows, []string{string(fam), f3(eps), "rejected", f4(1 + 2*eps + eps*eps), "-"})
				continue
			}
			h := pr.Placed.Makespan() // sizes are guess-relative
			tt := pr.Info.T
			t.Rows = append(t.Rows, []string{
				string(fam), f3(eps), f4(h), f4(tt), yes(h <= tt+2*eps+1e-9),
			})
		}
	}
	t.Notes = append(t.Notes, "Heights are measured on the transformed, scaled instance, so 1.0 corresponds to the makespan guess (the bag-LPT upper bound here).")
	return t, nil
}

// runL11 measures the Lemma 11 repair work across many runs: origin
// chasing fixes the swap-induced conflicts and the final schedule is
// always feasible.
func runL11(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "L11",
		Title:  "Lemma 11 — origin-chasing conflict repair",
		Claim:  "conflicts between priority small and priority large jobs (caused by Lemma 7 swaps) are repaired in polynomial time with bounded height increase; the final schedule is always feasible",
		Header: []string{"family", "runs", "accepted", "origin moves", "generic moves", "all valid"},
	}
	seeds := cfg.seeds(6, 2)
	for _, fam := range workload.Families() {
		runs, accepted, origin, generic := 0, 0, 0, 0
		valid := true
		for seed := 0; seed < seeds; seed++ {
			in := workload.MustGenerate(workload.Spec{Family: fam, Machines: 20, Jobs: 70, Bags: 35, Seed: int64(60 + seed)})
			ub, err := greedy.BagLPT(in)
			if err != nil {
				return nil, err
			}
			runs++
			pr, err := core.RunPipeline(in, ub.Makespan()*1.02, core.Options{Eps: 0.5, BPrimeOverride: 2})
			if err != nil {
				continue
			}
			accepted++
			origin += pr.PlaceStats.OriginMoves
			generic += pr.PlaceStats.GenericMoves
			if err := pr.Final.Validate(); err != nil {
				valid = false
			}
		}
		t.Rows = append(t.Rows, []string{string(fam), d(runs), d(accepted), d(origin), d(generic), yes(valid)})
	}
	return t, nil
}

var _ = sched.LowerBound // keep the import for helpers below if unused
