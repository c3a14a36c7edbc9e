package bagsched

// Cache-differential tests of the serving-layer shared memo: solving
// through a shared bounded Cache must be invisible in every result. For
// each committed fixture and each oracle backend, the uncached solve
// (memo off), the default private-memo solve, a cold shared-cache solve
// and a fully warm shared-cache solve must agree bit for bit — makespan,
// schedule and decision statistics. The warm solve additionally must be
// served entirely from the cache (zero pipeline runs), which is the
// cross-request reuse the solver service is built on.

import (
	"path/filepath"
	"reflect"
	"testing"
)

// assertSameOutcome fails unless two results agree bit for bit on
// makespan, schedule and the deterministic decision projection.
func assertSameOutcome(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Fatalf("%s: makespan %.17g, want %.17g", label, got.Makespan, want.Makespan)
	}
	if !reflect.DeepEqual(got.Schedule.Machine, want.Schedule.Machine) {
		t.Fatalf("%s: schedule differs", label)
	}
	if !reflect.DeepEqual(got.Stats.Decision(), want.Stats.Decision()) {
		t.Fatalf("%s: decision stats differ:\n%+v\nvs want\n%+v",
			label, got.Stats.Decision(), want.Stats.Decision())
	}
}

func TestSharedCacheDifferentialCorpus(t *testing.T) {
	files := instanceFixtures(t)
	if len(files) == 0 {
		t.Fatal("no fixtures under testdata/")
	}
	const eps = 0.5
	for _, bc := range backendCases {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			// One cache shared across every fixture of this backend, as
			// the solver service would share it across requests.
			shared := NewCache(64 << 20)
			for _, path := range files {
				path := path
				t.Run(filepath.Base(path), func(t *testing.T) {
					in := readFixture(t, path)
					base := append(famOpts(in), bc.opts...)

					uncached, err := SolveEPTAS(in, eps, append([]Option{WithMemo(false)}, base...)...)
					if err != nil {
						t.Fatalf("uncached: %v", err)
					}
					private, err := SolveEPTAS(in, eps, base...)
					if err != nil {
						t.Fatalf("private memo: %v", err)
					}
					assertSameOutcome(t, "private memo vs uncached", uncached, private)

					cold, err := SolveEPTAS(in, eps, append([]Option{WithSharedCache(shared)}, base...)...)
					if err != nil {
						t.Fatalf("shared cache (cold): %v", err)
					}
					assertSameOutcome(t, "shared cache (cold) vs uncached", uncached, cold)

					warm, err := SolveEPTAS(in, eps, append([]Option{WithSharedCache(shared)}, base...)...)
					if err != nil {
						t.Fatalf("shared cache (warm): %v", err)
					}
					assertSameOutcome(t, "shared cache (warm) vs uncached", uncached, warm)
					if warm.Stats.PipelineRuns != 0 {
						t.Errorf("warm shared-cache solve ran %d pipelines, want 0 (all guesses served from cache)",
							warm.Stats.PipelineRuns)
					}
					if warm.Stats.Guesses > 0 && warm.Stats.CacheHits == 0 {
						t.Errorf("warm shared-cache solve reported no cache hits over %d guesses", warm.Stats.Guesses)
					}
				})
			}
			st := shared.Stats()
			if st.Hits == 0 || st.Misses == 0 {
				t.Errorf("shared cache saw no traffic: %+v", st)
			}
			if st.Cost > st.MaxCost {
				t.Errorf("shared cache over budget: %+v", st)
			}
		})
	}
}

// TestSharedCacheNoFalseSharing solves one instance under two different
// accuracies through one shared cache: the key's config hash must keep
// the option sets apart, so each result still matches its uncached
// counterpart.
func TestSharedCacheNoFalseSharing(t *testing.T) {
	in := readFixture(t, filepath.Join("testdata", "bimodal_m6_n24.json"))
	shared := NewCache(0)
	for _, eps := range []float64{0.5, 0.3} {
		uncached, err := SolveEPTAS(in, eps, WithMemo(false))
		if err != nil {
			t.Fatalf("eps %g uncached: %v", eps, err)
		}
		cached, err := SolveEPTAS(in, eps, WithSharedCache(shared))
		if err != nil {
			t.Fatalf("eps %g shared: %v", eps, err)
		}
		assertSameOutcome(t, "shared vs uncached", uncached, cached)
	}
}

// TestSharedCacheTinyBudget forces constant eviction (a budget far below
// one result's footprint keeps only the newest entry) and checks results
// are still bit-identical — the bound affects hit rate, never answers.
func TestSharedCacheTinyBudget(t *testing.T) {
	files := instanceFixtures(t)
	if len(files) < 2 {
		t.Fatalf("need at least two fixtures, got %d", len(files))
	}
	tiny := NewCache(1)
	for _, path := range files {
		in := readFixture(t, path)
		base := famOpts(in)
		uncached, err := SolveEPTAS(in, 0.5, append([]Option{WithMemo(false)}, base...)...)
		if err != nil {
			t.Fatalf("%s uncached: %v", path, err)
		}
		for i := 0; i < 2; i++ {
			res, err := SolveEPTAS(in, 0.5, append([]Option{WithSharedCache(tiny)}, base...)...)
			if err != nil {
				t.Fatalf("%s solve %d: %v", path, i, err)
			}
			assertSameOutcome(t, "tiny-budget shared cache "+path, uncached, res)
		}
	}
	if st := tiny.Stats(); st.Evictions == 0 {
		t.Errorf("tiny budget caused no evictions: %+v", st)
	}
}
