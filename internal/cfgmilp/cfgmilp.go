// Package cfgmilp builds and decodes the paper's configuration MILP
// (Section 3, constraints (1)-(9)) over an enumerated pattern space.
//
// Two model flavours are provided:
//
//   - ModePaper materializes the y variables: per pattern, priority bag
//     and small size a (mostly fractional) assignment variable, integral
//     for sizes above sigma = eps^(2k+11) exactly as constraint (7)
//     demands. Non-priority small jobs are aggregated per (pattern, size)
//     — their per-bag caps are not needed because the placer redistributes
//     them globally with group-bag-LPT (Lemma 9 works with area bounds).
//
//   - ModeDecomposed keeps only the integral x variables and replaces the
//     y block by aggregate area and per-bag counting rows ((4)/(5) summed
//     over patterns). The small-job distribution is then computed by the
//     placer's capacity-respecting greedy. This is the default: it keeps
//     the LP dimension small while the repair lemmas absorb the same
//     rounding error, which the experiment suite verifies against exact
//     optima (EX-A1 compares both modes).
package cfgmilp

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/classify"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/sched"
)

// Mode selects the model flavour.
type Mode int

const (
	// ModeDecomposed is the x-only model with aggregated small-job rows.
	ModeDecomposed Mode = iota
	// ModePaper is the faithful model with y variables per constraint
	// (3)-(9).
	ModePaper
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeDecomposed:
		return "decomposed"
	case ModePaper:
		return "paper"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// YKey identifies a priority small-job variable y^{B^s_l}_p.
type YKey struct {
	Pattern int
	Bag     int
	SizeIdx int
}

// BagSizeCount is one (bag, size index) demand row.
type BagSizeCount struct{ Bag, SizeIdx, Count int }

// SizeCount is one per-size demand row.
type SizeCount struct{ SizeIdx, Count int }

// BagCount is one per-bag demand row.
type BagCount struct{ Bag, Count int }

// Demand is the backend-neutral statement of the configuration program:
// the exact integer demand statistics of the transformed instance that
// every constraint of the MILP is derived from. It is what non-LP oracle
// backends (the configuration DP) solve against directly, without going
// through the materialized LP rows. All slices are sorted by their key
// fields, so iteration is deterministic.
type Demand struct {
	// Machines is the machine count (the sum of pattern multiplicities).
	Machines int
	// MLPrio lists the priority (bag, medium/large size) slot demands
	// (constraint (2)).
	MLPrio []BagSizeCount
	// XTotals lists the anonymous large-slot demands per size ((2x)).
	XTotals []SizeCount
	// SmallPrioBags lists, per priority bag with small jobs, how many
	// machines must avoid the bag (the aggregated (3)+(5) rows).
	SmallPrioBags []BagCount
	// SmallAreaFx is the exact fixed-point total size of all small jobs
	// (the aggregate area right-hand side); SmallArea is its float64 lift
	// (or the seed's float accumulation under BuildOptions.Float64Ref).
	SmallAreaFx numeric.Fx
	SmallArea   float64
}

// Built is a constructed oracle model: the backend-neutral demand block
// plus the materialized MILP with its variable maps.
type Built struct {
	Mode  Mode
	Space *pattern.Space
	// View is the exact numeric view of the transformed instance the
	// model was built from; Prio flags its priority bags.
	View *classify.View
	Prio []bool
	// Demand is the backend-neutral demand block (see Demand).
	Demand Demand
	Model  *milp.Model
	// XVar[p] is the LP variable index of pattern p's multiplicity.
	XVar []int
	// YVar maps priority small keys to variable indices (ModePaper).
	YVar map[YKey]int
	// ZVar maps (pattern, small size idx) to the aggregated non-priority
	// variable indices (ModePaper).
	ZVar map[[2]int]int
	// IntegerVars is the number of integral variables in the model.
	IntegerVars int
	// Related, when non-nil, marks a related-family model (see
	// BuildRelated); Space, View and Prio are nil on such models and
	// backends that require the bag-constrained demand block must
	// return oracle's ErrUnsupported.
	Related *RelatedLayout
}

// Plan is the decoded MILP solution consumed by the placer.
type Plan struct {
	Space *pattern.Space
	// XCount[p] is the number of machines running pattern p.
	XCount []int
	// Y holds the priority small-job assignment (ModePaper only).
	Y map[YKey]float64
	// HasY reports whether Y is populated.
	HasY bool
	// RelCounts[k][p] is the number of class-k machines running
	// configuration p (related-family models only; Space and XCount are
	// nil on such plans).
	RelCounts [][]int
}

// BuildOptions selects the model flavour and the numeric path.
type BuildOptions struct {
	// Mode selects the model flavour.
	Mode Mode
	// Float64Ref accumulates the small-job area and applies the
	// constraint (7) integrality threshold with the retained float64
	// reference arithmetic (the pre-fixed-point seed path). The produced
	// model is bit-identical either way; the flag exists for differential
	// testing.
	Float64Ref bool
}

// Build constructs the MILP for the transformed instance in (with
// numeric view, see classify.View) with bag priority flags prio over the
// pattern space sp. Coverage coefficients and right-hand sides are exact
// integers derived from the view; the small-job area right-hand side is
// an exact fixed-point sum lifted to float64 once. Only the LP interior
// stays float64. The context is polled between constraint blocks (the
// per-pattern loops of ModePaper can be large); a canceled or expired
// ctx aborts the build and returns ctx.Err().
func Build(ctx context.Context, in *sched.Instance, view *classify.View, prio []bool, sp *pattern.Space, opt BuildOptions) (*Built, error) {
	info := view.Info
	mode := opt.Mode
	b := &Built{Mode: mode, Space: sp, View: view, Prio: prio}
	prob := lp.NewProblem()

	// x variables, one per pattern, all integral.
	b.XVar = make([]int, len(sp.Patterns))
	var integers []int
	for p := range sp.Patterns {
		v := prob.AddVar(0)
		b.XVar[p] = v
		integers = append(integers, v)
	}

	// Instance statistics, resolved through the exact view (no per-job
	// float64 searches).
	mlPrio := make(map[bagSize]int) // priority (bag, ML size) counts
	xTotals := make(map[int]int)    // large size -> non-priority count
	smallPrio := make(map[bagSize]int)
	smallX := make(map[int]int) // small size -> non-priority count
	smallCountByBag := make(map[int]int)
	var smallAreaFx numeric.Fx
	smallAreaRef := 0.0
	for j, job := range in.Jobs {
		si := view.JobIdx[j]
		cls := info.SizeClass[si]
		switch {
		case cls != classify.Small && prio[job.Bag]:
			mlPrio[bagSize{job.Bag, si}]++
		case cls == classify.Large:
			xTotals[si]++
		case cls == classify.Medium:
			return nil, fmt.Errorf("cfgmilp: medium job %d in non-priority bag %d; transform first", j, job.Bag)
		case cls == classify.Small:
			smallAreaFx += view.JobFx[j]
			if opt.Float64Ref {
				smallAreaRef += job.Size
			}
			smallCountByBag[job.Bag]++
			if prio[job.Bag] {
				smallPrio[bagSize{job.Bag, si}]++
			} else {
				smallX[si]++
			}
		}
	}
	// Exact lift: for grid sizes the fixed sum and the float sum agree
	// bit for bit (numeric package contract); the reference path keeps
	// the seed's float accumulation for the differential tests.
	smallArea := smallAreaFx.Float()
	if opt.Float64Ref {
		smallArea = smallAreaRef
	}

	// Record the backend-neutral demand block before materializing any LP
	// rows: non-LP backends solve against exactly these statistics.
	b.Demand = Demand{
		Machines:    in.Machines,
		SmallAreaFx: smallAreaFx,
		SmallArea:   smallArea,
	}
	for _, ks := range bagSizeKeys(mlPrio) {
		b.Demand.MLPrio = append(b.Demand.MLPrio, BagSizeCount{Bag: ks.bag, SizeIdx: ks.si, Count: mlPrio[ks]})
	}
	for _, si := range intKeys(xTotals) {
		b.Demand.XTotals = append(b.Demand.XTotals, SizeCount{SizeIdx: si, Count: xTotals[si]})
	}
	for _, bag := range intKeys(smallCountByBag) {
		if prio[bag] {
			b.Demand.SmallPrioBags = append(b.Demand.SmallPrioBags, BagCount{Bag: bag, Count: smallCountByBag[bag]})
		}
	}

	// (1) sum_p x_p = m (the empty pattern absorbs idle machines).
	allX := make([]lp.Term, len(sp.Patterns))
	for p := range sp.Patterns {
		allX[p] = lp.Term{Var: b.XVar[p], Coef: 1}
	}
	prob.AddConstraint(allX, lp.EQ, float64(in.Machines))

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// (2) priority coverage: per (priority bag, ML size) enough slots.
	for _, ks := range bagSizeKeys(mlPrio) {
		var terms []lp.Term
		for p := range sp.Patterns {
			if c := sp.Patterns[p].ChiPrio(ks.bag, ks.si); c > 0 {
				terms = append(terms, lp.Term{Var: b.XVar[p], Coef: float64(c)})
			}
		}
		if len(terms) == 0 {
			return nil, infeasibleErr("no pattern offers slot (bag %d, size idx %d)", ks.bag, ks.si)
		}
		prob.AddConstraint(terms, lp.GE, float64(mlPrio[ks]))
	}

	// (2x) X coverage per large size.
	for _, si := range intKeys(xTotals) {
		var terms []lp.Term
		for p := range sp.Patterns {
			if c := sp.XMult(&sp.Patterns[p], si); c > 0 {
				terms = append(terms, lp.Term{Var: b.XVar[p], Coef: float64(c)})
			}
		}
		if len(terms) == 0 {
			return nil, infeasibleErr("no pattern offers X slots of size idx %d", si)
		}
		prob.AddConstraint(terms, lp.GE, float64(xTotals[si]))
	}

	switch mode {
	case ModeDecomposed:
		// (A) aggregate area: free space across all machines covers the
		// small jobs. The right-hand side is read back from the demand
		// block so the materialized row and the backend-neutral statement
		// are one value by construction.
		var areaTerms []lp.Term
		for p := range sp.Patterns {
			headroom := info.T - sp.Patterns[p].Height
			if headroom < 0 {
				headroom = 0
			}
			areaTerms = append(areaTerms, lp.Term{Var: b.XVar[p], Coef: headroom})
		}
		if b.Demand.SmallArea > 0 {
			prob.AddConstraint(areaTerms, lp.GE, b.Demand.SmallArea)
		}
		// (C) per priority bag with small jobs: enough machines whose
		// pattern avoids the bag ((3)+(5) aggregated over patterns).
		for _, bag := range intKeys(smallCountByBag) {
			if !prio[bag] {
				// Non-priority bags can use any machine; feasibility is
				// |B_l| <= m, checked by the caller.
				continue
			}
			var terms []lp.Term
			for p := range sp.Patterns {
				if !sp.Patterns[p].ChiBag(bag) {
					terms = append(terms, lp.Term{Var: b.XVar[p], Coef: 1})
				}
			}
			if len(terms) == 0 {
				return nil, infeasibleErr("no pattern avoids bag %d for its small jobs", bag)
			}
			prob.AddConstraint(terms, lp.GE, float64(smallCountByBag[bag]))
		}

	case ModePaper:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b.YVar = make(map[YKey]int)
		b.ZVar = make(map[[2]int]int)
		// y variables: per (pattern, priority bag, small size) where the
		// pattern avoids the bag (constraint (5) zeroes the rest, so we
		// never materialize them). Integral when size > sigma ((7)-(8)).
		for _, ks := range bagSizeKeys(smallPrio) {
			// Constraint (7) integrality: exact integer compare against
			// the folded Sigma+Tol capacity (reference: the seed's float
			// compare — identical by the numeric.Cap equivalence).
			integral := info.SizesFx[ks.si] > info.SigmaCapFx
			if opt.Float64Ref {
				integral = info.Sizes[ks.si] > info.Sigma+numeric.Tol
			}
			for p := range sp.Patterns {
				if sp.Patterns[p].ChiBag(ks.bag) {
					continue
				}
				v := prob.AddVar(0)
				b.YVar[YKey{Pattern: p, Bag: ks.bag, SizeIdx: ks.si}] = v
				if integral {
					integers = append(integers, v)
				}
			}
		}
		// z variables: aggregated non-priority small jobs per size ((9)).
		for _, si := range intKeys(smallX) {
			for p := range sp.Patterns {
				v := prob.AddVar(0)
				b.ZVar[[2]int{p, si}] = v
			}
		}
		// (3) coverage.
		for _, ks := range bagSizeKeys(smallPrio) {
			var terms []lp.Term
			for p := range sp.Patterns {
				if v, ok := b.YVar[YKey{p, ks.bag, ks.si}]; ok {
					terms = append(terms, lp.Term{Var: v, Coef: 1})
				}
			}
			if len(terms) == 0 {
				return nil, infeasibleErr("no pattern can host small jobs of bag %d", ks.bag)
			}
			prob.AddConstraint(terms, lp.GE, float64(smallPrio[ks]))
		}
		for _, si := range intKeys(smallX) {
			var terms []lp.Term
			for p := range sp.Patterns {
				terms = append(terms, lp.Term{Var: b.ZVar[[2]int{p, si}], Coef: 1})
			}
			prob.AddConstraint(terms, lp.GE, float64(smallX[si]))
		}
		// (4) per-pattern area.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for p := range sp.Patterns {
			headroom := info.T - sp.Patterns[p].Height
			if headroom < 0 {
				headroom = 0
			}
			terms := []lp.Term{{Var: b.XVar[p], Coef: -headroom}}
			for _, ks := range bagSizeKeys(smallPrio) {
				if v, ok := b.YVar[YKey{p, ks.bag, ks.si}]; ok {
					terms = append(terms, lp.Term{Var: v, Coef: info.Sizes[ks.si]})
				}
			}
			for _, si := range intKeys(smallX) {
				terms = append(terms, lp.Term{Var: b.ZVar[[2]int{p, si}], Coef: info.Sizes[si]})
			}
			if len(terms) > 1 {
				prob.AddConstraint(terms, lp.LE, 0)
			}
		}
		// (5) per (pattern, priority bag): at most x_p small jobs.
		perBagSizes := make(map[int][]int)
		var bagList []int
		for _, ks := range bagSizeKeys(smallPrio) {
			if _, ok := perBagSizes[ks.bag]; !ok {
				bagList = append(bagList, ks.bag)
			}
			perBagSizes[ks.bag] = append(perBagSizes[ks.bag], ks.si)
		}
		for _, bag := range bagList {
			for p := range sp.Patterns {
				terms := []lp.Term{{Var: b.XVar[p], Coef: -1}}
				n := 0
				for _, si := range perBagSizes[bag] {
					if v, ok := b.YVar[YKey{p, bag, si}]; ok {
						terms = append(terms, lp.Term{Var: v, Coef: 1})
						n++
					}
				}
				if n > 0 {
					prob.AddConstraint(terms, lp.LE, 0)
				}
			}
		}
	}

	b.Model = &milp.Model{Prob: prob, Integer: integers}
	b.IntegerVars = len(integers)
	return b, nil
}

// Decode converts a MILP solution into a Plan.
func (b *Built) Decode(sol milp.Solution) *Plan {
	if b.Related != nil {
		return b.decodeRelated(sol)
	}
	plan := &Plan{Space: b.Space, XCount: make([]int, len(b.XVar))}
	for p, v := range b.XVar {
		plan.XCount[p] = numeric.RoundInt(sol.X[v])
	}
	if b.Mode == ModePaper {
		plan.HasY = true
		plan.Y = make(map[YKey]float64, len(b.YVar))
		for k, v := range b.YVar {
			if sol.X[v] > 1e-9 {
				plan.Y[k] = sol.X[v]
			}
		}
	}
	return plan
}

// InfeasibleError marks a structurally infeasible model (a required slot
// type has no supplying pattern), distinguishing it from solver failures.
type InfeasibleError struct{ msg string }

func (e InfeasibleError) Error() string { return "cfgmilp: " + e.msg }

func infeasibleErr(format string, args ...interface{}) error {
	return InfeasibleError{msg: fmt.Sprintf(format, args...)}
}

// --- deterministic map-iteration helpers ---

// bagSize keys the per-(bag, size-index) statistics maps.
type bagSize struct{ bag, si int }

func bagSizeKeys(m map[bagSize]int) []bagSize {
	keys := make([]bagSize, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].bag != keys[b].bag {
			return keys[a].bag < keys[b].bag
		}
		return keys[a].si < keys[b].si
	})
	return keys
}

func intKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
