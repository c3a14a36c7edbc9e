package bagsched

// Resolve-differential tests: the bit-identity contract of the
// incremental re-solve path. Every committed churn trace under
// testdata/churn_*.json is replayed across the full matrix of oracle
// backends (reusing backendCases from the backend differential) and
// problem families, and at every step the incremental ResolveEPTAS
// answer is checked against a from-scratch SolveEPTAS of the post-delta
// instance:
//
//   - the warm makespan equals the cold makespan bit for bit, and the
//     warm schedule equals the cold schedule job for job — warm-starting
//     moves which guesses the search probes, never which guess it
//     accepts or how the winning guess is placed;
//   - warm-starting saves work: per step the warm solve runs at most one
//     more pipeline execution than cold (the documented worst case when
//     the seed brackets a narrow interval), and over a whole trace the
//     warm total is at most the cold total — strictly below it whenever
//     the cold path did any pipeline work at all (cross-guess memo hits
//     and the seeded bracket both shrink the probe count).
//
// `make race` runs this file (plus the core/placer/workload resolve
// tests) under -race in every CI matrix cell.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sched"
)

// churnTraces globs the committed churn fixtures; the corpus must hold
// at least the low-churn and high-churn traces pinned by
// TestFixtureShapes.
func churnTraces(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "churn_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("churn corpus shrank: %d traces under testdata/, want >= 2", len(files))
	}
	return files
}

func readTrace(t *testing.T, path string) *sched.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := sched.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestResolveDifferentialCorpus(t *testing.T) {
	families := []struct {
		name string
		fam  Family
	}{
		{"bags", FamilyBags},
		{"identical", FamilyIdentical},
	}
	for _, path := range churnTraces(t) {
		tr := readTrace(t, path)
		for _, bc := range backendCases {
			for _, fc := range families {
				opts := append([]Option{WithFamily(fc.fam)}, bc.opts...)
				t.Run(fmt.Sprintf("%s/%s/%s", filepath.Base(path), bc.name, fc.name), func(t *testing.T) {
					replayTrace(t, tr, coldChain(t, tr, opts), opts)
				})
			}
		}
	}
}

// coldChain solves every post-delta instance of the trace from scratch
// — same knobs, no prior, no shared memo — the baseline every warm
// replay must match bit for bit.
func coldChain(t *testing.T, tr *sched.Trace, opts []Option) []*Result {
	t.Helper()
	colds := make([]*Result, len(tr.Steps))
	cur := tr.Base
	for i, d := range tr.Steps {
		post, _, err := d.Apply(cur)
		if err != nil {
			t.Fatalf("step %d does not apply: %v", i, err)
		}
		if colds[i], err = SolveEPTAS(post, 0.5, opts...); err != nil {
			t.Fatalf("step %d: from-scratch: %v", i, err)
		}
		cur = post
	}
	return colds
}

// replayTrace replays one churn trace under one oracle configuration,
// asserting step-wise bit-identity against the precomputed cold chain
// and trace-wide work savings.
func replayTrace(t *testing.T, tr *sched.Trace, colds []*Result, opts []Option) {
	prior, err := SolveEPTAS(tr.Base, 0.5, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cur := tr.Base
	var warmRuns, coldRuns int
	coldMulti := false
	for i, d := range tr.Steps {
		post, _, err := d.Apply(cur)
		if err != nil {
			t.Fatalf("step %d does not apply: %v", i, err)
		}
		warm, err := ResolveEPTAS(prior, d)
		if err != nil {
			t.Fatalf("step %d: resolve: %v", i, err)
		}
		cold := colds[i]
		if warm.Makespan != cold.Makespan {
			t.Fatalf("step %d: warm makespan %.17g differs from cold %.17g",
				i, warm.Makespan, cold.Makespan)
		}
		if !reflect.DeepEqual(warm.Schedule.Machine, cold.Schedule.Machine) {
			t.Fatalf("step %d: warm schedule differs from cold", i)
		}
		if err := warm.Schedule.Validate(); err != nil {
			t.Fatalf("step %d: warm schedule infeasible: %v", i, err)
		}
		// Per step the warm search never runs more pipelines than the
		// cold one.
		if warm.Stats.PipelineRuns > cold.Stats.PipelineRuns {
			t.Fatalf("step %d: warm ran %d pipelines, cold only %d",
				i, warm.Stats.PipelineRuns, cold.Stats.PipelineRuns)
		}
		warmRuns += warm.Stats.PipelineRuns
		coldRuns += cold.Stats.PipelineRuns
		coldMulti = coldMulti || cold.Stats.PipelineRuns > 1
		prior, cur = warm, post
	}
	// Trace-wide the warm path must save work: at most the cold total,
	// and strictly below it whenever some cold step ran more than one
	// pipeline. One pipeline per step is the floor for both searches
	// when the memo cannot serve the accepted guess, so equality is
	// allowed there.
	if warmRuns > coldRuns {
		t.Fatalf("warm replay ran %d pipelines, from-scratch only %d", warmRuns, coldRuns)
	}
	if coldMulti && warmRuns >= coldRuns {
		t.Fatalf("warm replay saved nothing: %d pipelines vs %d from scratch", warmRuns, coldRuns)
	}
}

// TestResolveRepairReplay replays the low-churn (resize-only) trace with
// the placement-repair fast path enabled. Repair is a certificate
// trade-off, not a silent approximation: a repaired step must still be a
// valid schedule within the family's 1+eps guarantee of the post-delta
// lower bound, and any step where repair falls back to search must be
// bit-identical to from-scratch.
func TestResolveRepairReplay(t *testing.T) {
	for _, path := range churnTraces(t) {
		tr := readTrace(t, path)
		t.Run(filepath.Base(path), func(t *testing.T) {
			prior, err := SolveEPTAS(tr.Base, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			cur := tr.Base
			var repaired int
			for i, d := range tr.Steps {
				post, _, err := d.Apply(cur)
				if err != nil {
					t.Fatalf("step %d does not apply: %v", i, err)
				}
				warm, err := ResolveEPTAS(prior, d, WithPlacementRepair())
				if err != nil {
					t.Fatalf("step %d: resolve: %v", i, err)
				}
				if err := warm.Schedule.Validate(); err != nil {
					t.Fatalf("step %d: repaired schedule infeasible: %v", i, err)
				}
				if warm.Stats.Repaired {
					repaired++
					// The repair acceptance certificate: within 1+eps of
					// the post-delta lower bound, checked against an
					// independently computed bound.
					if lb := LowerBound(post); warm.Makespan > (1+0.5)*lb+1e-9 {
						t.Fatalf("step %d: repaired makespan %.9f above (1+eps)*lb=%.9f",
							i, warm.Makespan, 1.5*lb)
					}
					if warm.Stats.PipelineRuns != 0 {
						t.Fatalf("step %d: repaired but ran %d pipelines", i, warm.Stats.PipelineRuns)
					}
				} else {
					cold, err := SolveEPTAS(post, 0.5)
					if err != nil {
						t.Fatal(err)
					}
					if warm.Makespan != cold.Makespan {
						t.Fatalf("step %d: fallback makespan %.17g differs from cold %.17g",
							i, warm.Makespan, cold.Makespan)
					}
				}
				prior, cur = warm, post
			}
			// The resize-only low-churn trace is the regime repair exists
			// for; it must fire at least once there.
			if repaired == 0 && filepath.Base(path) == "churn_low_m6_n24.json" {
				t.Fatal("placement repair never fired on the low-churn trace")
			}
		})
	}
}
