package bagsched

// Family-differential tests of the problem-family seam: the refactor
// that lifted the bag-constraint specifics behind internal/family must
// be invisible to the default pipeline, and the sibling families it
// enables must be correct in their own right.
//
//   - Bags is the identity refactor: solving with WithFamily(FamilyBags)
//     must be bit-for-bit the un-optioned solve — makespan, schedule and
//     decision statistics — on every committed fixture, for both oracle
//     backends.
//   - Identical is the degenerate singleton-bag case: on instances that
//     already have one job per bag it must reproduce the bags solve
//     exactly (same prepared instance, same deterministic pipeline).
//   - Related is cross-checked against exhaustive enumeration on small
//     instances: the returned makespan must be sandwiched between the
//     brute-force optimum and its 1+O(eps) band, with the EPTAS pipeline
//     (not the SpeedLPT fallback) producing the schedule.

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/workload"
)

func TestFamilyBagsBitIdentical(t *testing.T) {
	files := instanceFixtures(t)
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			in := readFixture(t, path)
			if !in.Uniform() {
				t.Skip("speed fixture: bags rejects it by contract")
			}
			for _, bc := range backendCases {
				def, err := SolveEPTAS(in, 0.5, bc.opts...)
				if err != nil {
					t.Fatalf("%s default: %v", bc.name, err)
				}
				fam, err := SolveEPTAS(in, 0.5, append([]Option{WithFamily(FamilyBags)}, bc.opts...)...)
				if err != nil {
					t.Fatalf("%s via family seam: %v", bc.name, err)
				}
				if fam.Makespan != def.Makespan {
					t.Errorf("%s: family seam changed the makespan: %.17g vs %.17g", bc.name, fam.Makespan, def.Makespan)
				}
				if !reflect.DeepEqual(fam.Schedule.Machine, def.Schedule.Machine) {
					t.Errorf("%s: family seam changed the schedule", bc.name)
				}
				if fam.LowerBound != def.LowerBound {
					t.Errorf("%s: family seam changed the lower bound: %.17g vs %.17g", bc.name, fam.LowerBound, def.LowerBound)
				}
				if !reflect.DeepEqual(fam.Stats.Decision(), def.Stats.Decision()) {
					t.Errorf("%s: family seam changed decision stats:\n%+v\nvs\n%+v",
						bc.name, fam.Stats.Decision(), def.Stats.Decision())
				}
			}
		})
	}
}

// TestFamilyIdenticalMatchesBags solves singleton-bag instances both as
// the bag family and as the identical family: the identical family's
// Prepare rewrites bags to singletons, so on inputs already in that form
// the two solves run the same deterministic pipeline and must agree bit
// for bit.
func TestFamilyIdenticalMatchesBags(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		in := workload.MustGenerate(workload.Spec{
			Family: workload.Uniform, Machines: 5, Jobs: 18, Bags: 18, Seed: seed,
		})
		// Normalize to exact singleton bags (the generator only caps bag
		// sizes; the identity argument needs bag i == job i).
		norm := in.Clone()
		norm.NumBags = len(norm.Jobs)
		for i := range norm.Jobs {
			norm.Jobs[i].Bag = i
		}

		bags, err := SolveEPTAS(norm, 0.4)
		if err != nil {
			t.Fatalf("seed %d bags: %v", seed, err)
		}
		ident, err := SolveEPTAS(norm, 0.4, WithFamily(FamilyIdentical))
		if err != nil {
			t.Fatalf("seed %d identical: %v", seed, err)
		}
		if ident.Makespan != bags.Makespan {
			t.Errorf("seed %d: identical family makespan %.17g, bags %.17g", seed, ident.Makespan, bags.Makespan)
		}
		if !reflect.DeepEqual(ident.Schedule.Machine, bags.Schedule.Machine) {
			t.Errorf("seed %d: identical family schedule differs from bags on singleton bags", seed)
		}
		if !reflect.DeepEqual(ident.Stats.Decision(), bags.Stats.Decision()) {
			t.Errorf("seed %d: decision stats differ:\n%+v\nvs\n%+v",
				seed, ident.Stats.Decision(), bags.Stats.Decision())
		}
	}
}

// bruteForceRelated enumerates every assignment of the instance's jobs
// to machines and returns the optimal speed-aware makespan.
func bruteForceRelated(in *Instance) float64 {
	best := math.Inf(1)
	loads := make([]float64, in.Machines)
	var rec func(j int)
	rec = func(j int) {
		if j == len(in.Jobs) {
			ms := 0.0
			for m, l := range loads {
				if t := l / in.Speed(m); t > ms {
					ms = t
				}
			}
			if ms < best {
				best = ms
			}
			return
		}
		for m := 0; m < in.Machines; m++ {
			loads[m] += in.Jobs[j].Size
			rec(j + 1)
			loads[m] -= in.Jobs[j].Size
		}
	}
	rec(0)
	return best
}

func TestFamilyRelatedVsBruteForce(t *testing.T) {
	cases := []struct {
		name   string
		speeds []float64
		sizes  []float64
	}{
		{"two-speeds", []float64{1, 2}, []float64{1.6, 1.2, 0.8, 0.5, 0.4, 0.3}},
		{"fast-outlier", []float64{1, 1, 4}, []float64{3.5, 1.0, 0.9, 0.7, 0.3, 0.2, 0.1}},
		{"three-classes", []float64{1, 2, 4}, []float64{2.0, 2.0, 1.0, 0.6, 0.6, 0.5, 0.25}},
		{"unit-speeds", []float64{1, 1, 1}, []float64{1.0, 0.9, 0.8, 0.4, 0.3, 0.2}},
		{"near-speeds", []float64{2, 3}, []float64{2.5, 1.8, 1.1, 0.9, 0.4}},
	}
	const eps = 0.25
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			in := NewRelatedInstance(tc.speeds)
			for i, s := range tc.sizes {
				in.AddJob(s, i)
			}
			opt := bruteForceRelated(in)

			res, err := SolveEPTAS(in, eps, WithFamily(FamilyRelated))
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Fatal(err)
			}
			if res.Stats.Fallback {
				t.Error("related pipeline never accepted a guess; schedule is the SpeedLPT fallback")
			}
			if res.Makespan < opt-1e-9 {
				t.Errorf("makespan %.9f beats the brute-force optimum %.9f", res.Makespan, opt)
			}
			// Accepted guesses are realized within (1+2eps) and the search
			// overshoots the optimum by at most eps*lb/4, so 1+3eps bounds
			// the end-to-end ratio with room to spare.
			if res.Makespan > opt*(1+3*eps)+1e-9 {
				t.Errorf("makespan %.9f exceeds (1+3eps)*OPT = %.9f (OPT %.9f)", res.Makespan, opt*(1+3*eps), opt)
			}
			if res.Makespan < res.LowerBound-1e-9 {
				t.Errorf("makespan %.9f below the family lower bound %.9f", res.Makespan, res.LowerBound)
			}
			// The solve must be deterministic, family seam or not.
			again, err := SolveEPTAS(in, eps, WithFamily(FamilyRelated))
			if err != nil {
				t.Fatal(err)
			}
			if again.Makespan != res.Makespan || !reflect.DeepEqual(again.Schedule.Machine, res.Schedule.Machine) {
				t.Error("related solve is nondeterministic")
			}
		})
	}
}

// TestFamilyRelatedGeneratedWorkloads runs the related pipeline over the
// dedicated related workload generators at several sizes: schedules
// validate, beat nothing below the family lower bound, and improve on or
// match the SpeedLPT fallback.
func TestFamilyRelatedGeneratedWorkloads(t *testing.T) {
	for _, fam := range workload.RelatedFamilies() {
		for seed := int64(1); seed <= 3; seed++ {
			in := workload.MustGenerate(workload.Spec{
				Family: fam, Machines: 8, Jobs: 30, Seed: seed,
			})
			res, err := SolveEPTAS(in, 0.4, WithFamily(FamilyRelated))
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam, seed, err)
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", fam, seed, err)
			}
			if res.Makespan < res.LowerBound-1e-9 {
				t.Errorf("%s seed %d: makespan %.9f below lower bound %.9f", fam, seed, res.Makespan, res.LowerBound)
			}
			if res.Stats.Fallback {
				t.Errorf("%s seed %d: related pipeline fell back to SpeedLPT", fam, seed)
			}
		}
	}
}
