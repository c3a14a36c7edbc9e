package core

// Differential tests of the fixed-point numeric core: the post-rounding
// pipeline runs on exact int64 fixed-point arithmetic by default, with
// the pre-refactor float64 arithmetic retained behind Options.Float64Ref.
// Result transparency is non-negotiable — both paths must return
// bit-identical makespans, schedules and decision statistics over the
// full workload corpus, in both MILP modes and with the transformation
// active (priority cap) and inactive.

import (
	"reflect"
	"testing"

	"repro/internal/cfgmilp"
	"repro/internal/milp"
	"repro/internal/workload"
)

// diffMILP caps the per-guess node budget below the default to keep the
// -race CI job fast; like every oracle budget it is a work count, so
// both paths decide each guess identically.
var diffMILP = milp.Options{MaxNodes: 200}

// diffPatternLimit keeps the LP dimension of the differential corpus
// small: guesses whose spaces explode are rejected identically on both
// paths and the ladder degrades — itself a path worth diffing.
const diffPatternLimit = 1000

func TestFixedPointMatchesFloat64Reference(t *testing.T) {
	type variant struct {
		name string
		opt  Options
	}
	variants := []variant{
		{"default", Options{Eps: 0.5, Speculate: 1, MILP: diffMILP, PatternLimit: diffPatternLimit}},
		{"eps033", Options{Eps: 0.33, Speculate: 1, MILP: diffMILP, PatternLimit: diffPatternLimit}},
		{"prioritycap", Options{Eps: 0.5, Speculate: 1, BPrimeOverride: 2, MILP: diffMILP, PatternLimit: diffPatternLimit}},
		// Paper mode materializes the y block, so its LP dimension is the
		// pattern count times the small-size/bag diversity — a much
		// tighter pattern budget keeps it a model-shape diff rather than
		// a scale test.
		{"papermode", Options{Eps: 0.5, Speculate: 1, Mode: cfgmilp.ModePaper, BPrimeOverride: 2,
			MILP: milp.Options{MaxNodes: 80}, PatternLimit: 250}},
	}
	// Every family runs the default variant plus one rotating special
	// variant; the full cross product would quadruple the -race CI cost
	// without adding a numeric path the rotation misses.
	for fi, fam := range workload.Families() {
		for _, v := range []variant{variants[0], variants[1+fi%(len(variants)-1)]} {
			in := workload.MustGenerate(workload.Spec{
				Family: fam, Machines: 6, Jobs: 24, Bags: 8, Seed: 7,
			})
			fixed, err := Solve(in, v.opt)
			if err != nil {
				t.Fatalf("%s/%s fixed: %v", fam, v.name, err)
			}
			ref := v.opt
			ref.Float64Ref = true
			float, err := Solve(in, ref)
			if err != nil {
				t.Fatalf("%s/%s float ref: %v", fam, v.name, err)
			}
			if fixed.Makespan != float.Makespan {
				t.Errorf("%s/%s: makespan %v (fixed) vs %v (float): not bit-identical",
					fam, v.name, fixed.Makespan, float.Makespan)
			}
			if !reflect.DeepEqual(fixed.Schedule.Machine, float.Schedule.Machine) {
				t.Errorf("%s/%s: schedules diverge", fam, v.name)
			}
			if !reflect.DeepEqual(fixed.Stats.Decision(), float.Stats.Decision()) {
				t.Errorf("%s/%s: decision stats diverge:\nfixed %+v\nfloat %+v",
					fam, v.name, fixed.Stats.Decision(), float.Stats.Decision())
			}
			if fixed.LowerBound != float.LowerBound {
				t.Errorf("%s/%s: lower bounds diverge", fam, v.name)
			}
		}
	}
}

// TestFixedPointMatchesFloat64ReferenceLarger pushes one bigger instance
// per family through both paths to catch divergence that only appears
// with deeper pattern spaces and more binary-search guesses.
func TestFixedPointMatchesFloat64ReferenceLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("larger differential corpus")
	}
	for _, fam := range workload.Families() {
		in := workload.MustGenerate(workload.Spec{
			Family: fam, Machines: 8, Jobs: 40, Bags: 10, Seed: 77,
		})
		fixed, err := Solve(in, Options{Eps: 0.4, Speculate: 1, BPrimeOverride: 4, MILP: diffMILP, PatternLimit: diffPatternLimit})
		if err != nil {
			t.Fatalf("%s fixed: %v", fam, err)
		}
		float, err := Solve(in, Options{Eps: 0.4, Speculate: 1, BPrimeOverride: 4, MILP: diffMILP, PatternLimit: diffPatternLimit, Float64Ref: true})
		if err != nil {
			t.Fatalf("%s float ref: %v", fam, err)
		}
		if fixed.Makespan != float.Makespan {
			t.Errorf("%s: makespan %v (fixed) vs %v (float)", fam, fixed.Makespan, float.Makespan)
		}
		if !reflect.DeepEqual(fixed.Schedule.Machine, float.Schedule.Machine) {
			t.Errorf("%s: schedules diverge", fam)
		}
		if !reflect.DeepEqual(fixed.Stats.Decision(), float.Stats.Decision()) {
			t.Errorf("%s: decision stats diverge", fam)
		}
	}
}
