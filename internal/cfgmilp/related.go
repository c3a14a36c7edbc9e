package cfgmilp

import (
	"context"

	"repro/internal/classify"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/sched"
)

// RelatedLayout is the variable layout of a related-family
// configuration program. Its presence on Built marks the model as
// related-shaped: Decode fills Plan.RelCounts from it, and backends
// that only understand the bag-constrained demand block (the
// configuration DP) return ErrUnsupported.
type RelatedLayout struct {
	// Info is the related classification the model was built from.
	Info *classify.RelInfo
	// Space is the per-speed-class configuration space.
	Space *pattern.RelSpace
	// XVar[k][p] is the LP variable index of the multiplicity of
	// pattern p on speed class k.
	XVar [][]int
}

// BuildRelated constructs the related-family feasibility program over
// the per-class configuration space sp: one integral multiplicity
// variable per (class, pattern), machine-count rows per class, a
// coverage row per large size, and one aggregate area row whose
// headroom coefficients come from the exact fixed-point capacities.
// Only bnb decides related models, so the MILP is materialized here.
// The context is polled between constraint blocks.
func BuildRelated(ctx context.Context, in *sched.Instance, info *classify.RelInfo, sp *pattern.RelSpace) (*Built, error) {
	b := &Built{Mode: ModeDecomposed, Related: &RelatedLayout{Info: info, Space: sp}}
	prob := lp.NewProblem()

	var integers []int
	b.Related.XVar = make([][]int, len(sp.Classes))
	for k, ps := range sp.Classes {
		b.Related.XVar[k] = make([]int, len(ps))
		for p := range ps {
			v := prob.AddVar(0)
			b.Related.XVar[k][p] = v
			integers = append(integers, v)
		}
	}

	// Per class: pattern multiplicities cover the class's machines
	// exactly (the empty pattern absorbs idle machines).
	for k, ps := range sp.Classes {
		terms := make([]lp.Term, len(ps))
		for p := range ps {
			terms[p] = lp.Term{Var: b.Related.XVar[k][p], Coef: 1}
		}
		prob.AddConstraint(terms, lp.EQ, float64(info.ClassCount[k]))
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Per large size: enough slots across all classes.
	for si, demand := range info.SizeCount {
		var terms []lp.Term
		for k, ps := range sp.Classes {
			for p := range ps {
				if c := ps[p].Count[si]; c > 0 {
					terms = append(terms, lp.Term{Var: b.Related.XVar[k][p], Coef: float64(c)})
				}
			}
		}
		if len(terms) == 0 {
			return nil, infeasibleErr("no configuration offers slots of large size idx %d", si)
		}
		prob.AddConstraint(terms, lp.GE, float64(demand))
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Aggregate area: capacity headroom across all machines covers the
	// small jobs. Headrooms are exact fixed-point differences lifted to
	// float64 (lossless for grid values).
	if info.SmallArea > 0 {
		var terms []lp.Term
		for k, ps := range sp.Classes {
			for p := range ps {
				headroom := info.CapFx[k] - ps[p].HeightFx
				if headroom < 0 {
					headroom = 0
				}
				terms = append(terms, lp.Term{Var: b.Related.XVar[k][p], Coef: headroom.Float()})
			}
		}
		prob.AddConstraint(terms, lp.GE, info.SmallArea)
	}

	b.Demand = Demand{Machines: in.Machines, SmallAreaFx: info.SmallAreaFx, SmallArea: info.SmallArea}
	b.model = &milp.Model{Prob: prob, Integer: integers}
	b.IntegerVars = len(integers)
	return b, nil
}

// decodeRelated fills the related half of a plan from a solution.
func (b *Built) decodeRelated(sol milp.Solution) *Plan {
	rel := b.Related
	plan := &Plan{RelCounts: make([][]int, len(rel.XVar))}
	for k, vars := range rel.XVar {
		plan.RelCounts[k] = make([]int, len(vars))
		for p, v := range vars {
			plan.RelCounts[k][p] = numeric.RoundInt(sol.X[v])
		}
	}
	return plan
}
