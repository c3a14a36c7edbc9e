package bagsched

// Backend-differential tests of the oracle layer: every committed fixture
// is solved under both cfgmilp modes, both pinned oracle backends and
// the default policy (cfgdp, then bnb), and the outcomes are
// cross-checked. The contract mirrors the float/fixed differential
// tests at the level where the backends are interchangeable — the
// per-guess feasibility decision:
//
//   - on decomposed-mode models (which both backends support) the
//     backends and the default policy return bit-identical makespans on
//     the committed corpus, feasible schedules, and the same consumed
//     guess sequence, final guess, accepted classification, rung and
//     bound — the backends are exact deciders of the same configuration
//     programs;
//   - each backend is individually deterministic: repeated solves return
//     bit-identical makespans, schedules and decision statistics;
//   - on paper-mode and related-family models cfgdp is documented as
//     unsupported: pinned, it degrades cleanly to the family fallback,
//     while bnb decides them, and the default policy answers exactly as
//     bnb does.
//
// Schedules are not contractually identical *between* backends: an
// accepted guess's configuration program usually has many feasible
// multiplicity vectors and each backend deterministically returns its
// own, so final schedules may differ within the shared 1+O(eps)
// guarantee. The corpus-wide makespan equality asserted here is a
// property of the committed fixtures.

import (
	"path/filepath"
	"reflect"
	"testing"
)

// backendCases enumerates the oracle configurations under test.
var backendCases = []struct {
	name string
	opts []Option
}{
	{"bnb", []Option{WithBackend(BackendBnB)}},
	{"cfgdp", []Option{WithBackend(BackendCfgDP)}},
	{"default", nil},
}

// solveDeterministic solves in twice with opts and fails the test unless
// both runs agree bit for bit (makespan, schedule, decision statistics).
func solveDeterministic(t *testing.T, in *Instance, label string, opts ...Option) *Result {
	t.Helper()
	res, err := SolveEPTAS(in, 0.5, opts...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	again, err := SolveEPTAS(in, 0.5, opts...)
	if err != nil {
		t.Fatalf("%s: repeat solve: %v", label, err)
	}
	if again.Makespan != res.Makespan {
		t.Fatalf("%s: nondeterministic makespan: %.17g vs %.17g", label, res.Makespan, again.Makespan)
	}
	if !reflect.DeepEqual(again.Schedule.Machine, res.Schedule.Machine) {
		t.Fatalf("%s: nondeterministic schedule", label)
	}
	if !reflect.DeepEqual(again.Stats.Decision(), res.Stats.Decision()) {
		t.Fatalf("%s: nondeterministic decision stats:\n%+v\nvs\n%+v",
			label, res.Stats.Decision(), again.Stats.Decision())
	}
	return res
}

func TestBackendDifferentialCorpus(t *testing.T) {
	files := instanceFixtures(t)
	if len(files) == 0 {
		t.Fatal("no fixtures under testdata/")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			in := readFixture(t, path)
			if !in.Uniform() {
				// Speed fixtures run the related family, whose backend
				// contract differs (cfgdp is unsupported on related
				// models); they get their own sub-checks.
				testRelatedBackends(t, in)
				return
			}
			ub, err := SolveBagLPT(in)
			if err != nil {
				t.Fatal(err)
			}
			lb := LowerBound(in)
			var ref *Result
			for _, bc := range backendCases {
				label := "decomposed/" + bc.name
				opts := append([]Option{WithMode(ModeDecomposed)}, bc.opts...)
				res := solveDeterministic(t, in, label, opts...)
				if err := res.Schedule.Validate(); err != nil {
					t.Fatalf("%s: infeasible schedule: %v", label, err)
				}
				if res.Makespan < lb-1e-9 {
					t.Fatalf("%s: makespan %.12f below lower bound %.12f", label, res.Makespan, lb)
				}
				if res.Makespan > ub.Makespan()+1e-9 {
					t.Fatalf("%s: makespan %.12f above bag-LPT %.12f", label, res.Makespan, ub.Makespan())
				}
				if res.Stats.Fallback {
					t.Errorf("%s: fell back to bag-LPT; the backend never accepted a guess", label)
				}
				if ref == nil {
					ref = res
					continue
				}
				// Cross-backend agreement: bit-identical makespan on the
				// committed corpus, same consumed guess sequence and final
				// guess, same accepted classification, rung and bound.
				if res.Makespan != ref.Makespan {
					t.Errorf("%s: makespan %.17g differs from bnb's %.17g", label, res.Makespan, ref.Makespan)
				}
				if res.Stats.Guesses != ref.Stats.Guesses ||
					res.Stats.FailedGuesses != ref.Stats.FailedGuesses ||
					res.Stats.FinalGuess != ref.Stats.FinalGuess {
					t.Errorf("%s: guess sequence diverged from bnb: guesses %d/%d failed %d/%d final %g/%g",
						label, res.Stats.Guesses, ref.Stats.Guesses,
						res.Stats.FailedGuesses, ref.Stats.FailedGuesses,
						res.Stats.FinalGuess, ref.Stats.FinalGuess)
				}
				if res.Quality.Rung != ref.Quality.Rung || res.Quality.Bound != ref.Quality.Bound {
					t.Errorf("%s: quality %s/%g differs from bnb's %s/%g", label,
						res.Quality.Rung, res.Quality.Bound, ref.Quality.Rung, ref.Quality.Bound)
				}
				if res.Stats.K != ref.Stats.K || res.Stats.Q != ref.Stats.Q || res.Stats.BPrime != ref.Stats.BPrime {
					t.Errorf("%s: accepted classification diverged: K/Q/B' %d/%d/%d vs %d/%d/%d",
						label, res.Stats.K, res.Stats.Q, res.Stats.BPrime,
						ref.Stats.K, ref.Stats.Q, ref.Stats.BPrime)
				}
			}

			// Paper mode: bnb decides it. The paper-mode MILP grows
			// disproportionately with machine count (single solves on the
			// m=256 fixture run for seconds where decomposed mode takes
			// milliseconds), so the large-instance scaling class pins only
			// the decomposed contract above and leaves the paper-mode
			// contract to the small corpus.
			if in.Machines >= 64 {
				return
			}
			bnbPaper := solveDeterministic(t, in, "paper/bnb", WithMode(ModePaper), WithBackend(BackendBnB))
			if bnbPaper.Stats.Fallback {
				t.Error("paper/bnb fell back to bag-LPT")
			}
			// The default policy hands paper-mode models to bnb.
			assertSameOutcome(t, "paper/default vs paper/bnb", bnbPaper,
				solveDeterministic(t, in, "paper/default", WithMode(ModePaper)))

			// Solo cfgdp on paper mode is documented as unsupported: every
			// guess is rejected and the solver degrades to the bag-LPT
			// fallback — cleanly, with a valid schedule.
			dpPaper := solveDeterministic(t, in, "paper/cfgdp", WithMode(ModePaper), WithBackend(BackendCfgDP))
			if !dpPaper.Stats.Fallback {
				t.Error("paper/cfgdp accepted a guess; expected the documented unsupported fallback")
			}
			if err := dpPaper.Schedule.Validate(); err != nil {
				t.Errorf("paper/cfgdp fallback schedule invalid: %v", err)
			}
		})
	}
}

// testRelatedBackends is the backend contract on related-family models,
// mirroring the paper-mode contract: bnb decides them; cfgdp is
// documented as unsupported and degrades cleanly to the SpeedLPT
// fallback.
func testRelatedBackends(t *testing.T, in *Instance) {
	opts := func(extra ...Option) []Option {
		return append([]Option{WithFamily(FamilyRelated)}, extra...)
	}
	bnb := solveDeterministic(t, in, "related/bnb", opts(WithBackend(BackendBnB))...)
	if err := bnb.Schedule.Validate(); err != nil {
		t.Fatalf("related/bnb: infeasible schedule: %v", err)
	}
	if bnb.Stats.Fallback {
		t.Error("related/bnb fell back to SpeedLPT; bnb never accepted a guess")
	}
	if bnb.Makespan < bnb.LowerBound-1e-9 {
		t.Errorf("related/bnb: makespan %.12f below the family lower bound %.12f", bnb.Makespan, bnb.LowerBound)
	}
	// The default policy hands related models to bnb.
	assertSameOutcome(t, "related/default vs related/bnb", bnb, solveDeterministic(t, in, "related/default", opts()...))

	dp := solveDeterministic(t, in, "related/cfgdp", opts(WithBackend(BackendCfgDP))...)
	if !dp.Stats.Fallback {
		t.Error("related/cfgdp accepted a guess; expected the documented unsupported fallback")
	}
	if err := dp.Schedule.Validate(); err != nil {
		t.Errorf("related/cfgdp fallback schedule invalid: %v", err)
	}
}

// TestBackendStatsAttribution pins the per-backend accounting: each
// backend reports itself with its own work unit.
func TestBackendStatsAttribution(t *testing.T) {
	in := readFixture(t, filepath.Join("testdata", "bimodal_m6_n24.json"))

	bnb, err := SolveEPTAS(in, 0.5, WithBackend(BackendBnB))
	if err != nil {
		t.Fatal(err)
	}
	if bnb.Stats.OracleBackend != "bnb" {
		t.Errorf("bnb solve attributed to %q", bnb.Stats.OracleBackend)
	}
	if bnb.Stats.MILPNodes == 0 || bnb.Stats.DPStates != 0 {
		t.Errorf("bnb work accounting: nodes %d, states %d", bnb.Stats.MILPNodes, bnb.Stats.DPStates)
	}

	dp, err := SolveEPTAS(in, 0.5, WithBackend(BackendCfgDP))
	if err != nil {
		t.Fatal(err)
	}
	if dp.Stats.OracleBackend != "cfgdp" {
		t.Errorf("cfgdp solve attributed to %q", dp.Stats.OracleBackend)
	}
	if dp.Stats.DPStates == 0 || dp.Stats.MILPNodes != 0 {
		t.Errorf("cfgdp work accounting: nodes %d, states %d", dp.Stats.MILPNodes, dp.Stats.DPStates)
	}
}

// TestBackendMemoKeysSeparate: the default policy and the two pins key
// their memo entries apart, so a shared cache never serves an entry one
// policy produced to a solve under another — whichever solves first.
func TestBackendMemoKeysSeparate(t *testing.T) {
	in := readFixture(t, filepath.Join("testdata", "bimodal_m6_n24.json"))
	for _, first := range backendCases {
		for _, second := range backendCases {
			if first.name == second.name {
				continue
			}
			shared := NewCache(64 << 20)
			if _, err := SolveEPTAS(in, 0.5, append([]Option{WithSharedCache(shared), WithSpeculation(1)}, first.opts...)...); err != nil {
				t.Fatal(err)
			}
			res, err := SolveEPTAS(in, 0.5, append([]Option{WithSharedCache(shared), WithSpeculation(1)}, second.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.CacheHits != 0 || res.Stats.PipelineRuns == 0 {
				t.Errorf("%s after %s: %d cache hits over %d pipeline runs, want no entry served across policies",
					second.name, first.name, res.Stats.CacheHits, res.Stats.PipelineRuns)
			}
		}
	}
}
