package bagsched

// Native fuzz target over the numeric boundary of the EPTAS: random
// (machines, jobs, bags, family, eps) shapes are solved end to end and
// cross-checked for feasibility, lower/upper-bound consistency, the
// Theorem 1 quality bound (against the exact oracle when the instance is
// small enough to prove optimality quickly) and float-vs-fixed-point
// agreement — the fixed-point pipeline must return bit-identical results
// to the retained float64 reference path on every input the fuzzer
// invents, not just the committed corpus.
//
// Run with:
//
//	go test -fuzz FuzzSolveEPTAS -fuzztime 30s .
//
// Without -fuzz the seed corpus below runs as a regular test.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

func FuzzSolveEPTAS(f *testing.F) {
	// Seeds covering every family, both MILP-relevant shapes (few/many
	// bags) and the eps range the quality tests use.
	f.Add(uint8(3), uint8(12), uint8(4), uint8(0), int64(1))
	f.Add(uint8(6), uint8(24), uint8(8), uint8(9), int64(7))
	f.Add(uint8(8), uint8(40), uint8(10), uint8(18), int64(77))
	f.Add(uint8(4), uint8(0), uint8(1), uint8(27), int64(3))
	f.Add(uint8(1), uint8(5), uint8(5), uint8(12), int64(5))
	f.Add(uint8(7), uint8(33), uint8(12), uint8(31), int64(15))

	fams := workload.Families()
	epsTable := []float64{0.75, 0.5, 0.4, 0.33}

	f.Fuzz(func(t *testing.T, m, n, b, sel uint8, seed int64) {
		machines := 1 + int(m%8)
		jobs := int(n % 48)
		bags := 1 + int(b%12)
		fam := fams[int(sel)%len(fams)]
		eps := epsTable[int(sel)/len(fams)%len(epsTable)]
		if eps < 0.4 && jobs > 24 {
			// Small eps on large instances is legitimate but slow (deep
			// pattern spaces, twice, for the float/fixed cross-check);
			// keep a single fuzz input well under the hang detector.
			jobs %= 25
		}

		in, err := workload.Generate(workload.Spec{
			Family: fam, Machines: machines, Jobs: jobs, Bags: bags, Seed: seed,
		})
		if err != nil {
			t.Fatalf("generator rejected a valid spec: %v", err)
		}

		// A tight pattern budget keeps one fuzz input far from the hang
		// detector: guesses whose MILP would be huge are rejected and the
		// solver degrades along its ladder, which is itself a path worth
		// fuzzing. Every oracle budget is a work count, so per-guess
		// outcomes are load-independent and the float and fixed paths
		// cannot diverge through timing jitter. Both numeric paths run
		// under identical options, so the cross-checks are unaffected.
		opt := core.Options{
			Eps:          eps,
			Speculate:    1,
			PatternLimit: 1200,
		}
		res, err := core.Solve(in, opt)
		if err != nil {
			t.Fatalf("%s m=%d n=%d eps=%g: %v", fam, machines, len(in.Jobs), eps, err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("infeasible schedule: %v", err)
		}

		// Bound consistency: any feasible schedule is at least the
		// combinatorial lower bound, and the solver never returns worse
		// than its own bag-LPT fallback.
		lb := LowerBound(in)
		if res.Makespan < lb-1e-9 {
			t.Fatalf("makespan %.12f below lower bound %.12f", res.Makespan, lb)
		}
		ub, err := SolveBagLPT(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan > ub.Makespan()+1e-9 {
			t.Fatalf("makespan %.12f above bag-LPT fallback %.12f", res.Makespan, ub.Makespan())
		}

		// Float-vs-fixed-point agreement: bit-identical makespan and
		// schedule on the retained float64 reference path.
		refOpt := opt
		refOpt.Float64Ref = true
		ref, err := core.Solve(in, refOpt)
		if err != nil {
			t.Fatalf("float64 reference path failed where fixed point succeeded: %v", err)
		}
		if ref.Makespan != res.Makespan {
			t.Fatalf("float/fixed divergence: %.17g (float) vs %.17g (fixed)", ref.Makespan, res.Makespan)
		}
		if !reflect.DeepEqual(ref.Schedule.Machine, res.Schedule.Machine) {
			t.Fatal("float/fixed schedules diverge")
		}

		// Theorem 1 (makespan <= (1+O(eps)) * OPT): verifiable only when
		// the exact oracle proves optimality, so restrict to shapes it
		// settles in a moment.
		if len(in.Jobs) <= 10 && machines <= 4 {
			ex, err := SolveExact(in, 2*time.Second)
			if err == nil && ex.Proven {
				if ex.Makespan < lb-1e-9 {
					t.Fatalf("exact optimum %.12f below lower bound %.12f", ex.Makespan, lb)
				}
				if res.Makespan > (1+eps)*ex.Makespan+1e-9 {
					t.Fatalf("ratio %.4f exceeds 1+eps at eps=%g", res.Makespan/ex.Makespan, eps)
				}
			}
		}
	})
}
