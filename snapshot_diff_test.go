package bagsched

// Snapshot-differential tests of the shippable memo tier: exporting a
// warm shared cache with the versioned snapshot codec and importing it
// into a fresh cache must be invisible in every result. For each
// committed fixture and each oracle backend, a solve against the
// imported cache must agree bit for bit with the solve that populated
// the donor — and a sequential one must be served entirely from the
// cache (zero pipeline runs), which is the warm-start contract
// `bagsched serve -snapshot` and the shard fleet's cache shipping rely
// on.

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestSnapshotRoundTripDifferentialCorpus(t *testing.T) {
	files := instanceFixtures(t)
	if len(files) == 0 {
		t.Fatal("no fixtures under testdata/")
	}
	const eps = 0.5
	for _, bc := range backendCases {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			// Populate one donor cache across the whole corpus, as a
			// long-running replica would.
			donor := NewCache(64 << 20)
			type coldCase struct {
				path string
				in   *Instance
				base []Option
				res  *Result
			}
			var cases []coldCase
			for _, path := range files {
				in := readFixture(t, path)
				base := append(famOpts(in), bc.opts...)
				res, err := SolveEPTAS(in, eps, append([]Option{WithSharedCache(donor)}, base...)...)
				if err != nil {
					t.Fatalf("%s: cold solve: %v", path, err)
				}
				cases = append(cases, coldCase{path, in, base, res})
			}

			var buf bytes.Buffer
			written, err := ExportCacheSnapshot(donor, &buf)
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			if written != donor.Len() {
				t.Fatalf("export wrote %d entries, donor holds %d — the codec must cover every entry kind", written, donor.Len())
			}

			recipient := NewCache(64 << 20)
			st, err := ImportCacheSnapshot(recipient, bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			if st.Loaded != written {
				t.Fatalf("import loaded %d of %d exported entries (stats %+v)", st.Loaded, written, st)
			}
			if recipient.Len() != donor.Len() {
				t.Fatalf("recipient holds %d entries, donor %d", recipient.Len(), donor.Len())
			}

			for _, c := range cases {
				c := c
				t.Run(filepath.Base(c.path), func(t *testing.T) {
					// Sequential for the pipeline count; see
					// TestSharedCacheDifferentialCorpus.
					warm, err := SolveEPTAS(c.in, eps, append([]Option{WithSharedCache(recipient), WithSpeculation(1)}, c.base...)...)
					if err != nil {
						t.Fatalf("warm solve on imported cache: %v", err)
					}
					assertSameOutcome(t, "imported snapshot vs donor cold", c.res, warm)
					if warm.Stats.PipelineRuns != 0 {
						t.Errorf("solve on imported cache ran %d pipelines, want 0 (every guess shipped in the snapshot)",
							warm.Stats.PipelineRuns)
					}
					if warm.Stats.Guesses > 0 && warm.Stats.CacheHits == 0 {
						t.Errorf("solve on imported cache reported no hits over %d guesses", warm.Stats.Guesses)
					}
					spec, err := SolveEPTAS(c.in, eps, append([]Option{WithSharedCache(recipient)}, c.base...)...)
					if err != nil {
						t.Fatalf("speculative solve on imported cache: %v", err)
					}
					assertSameOutcome(t, "imported snapshot (default speculation) vs donor cold", c.res, spec)
				})
			}
		})
	}
}

// TestSnapshotImportTinyBudget imports a full-corpus snapshot into a
// cache whose budget holds almost nothing: the import must respect the
// bound (dropping coldest entries, never failing) and solves against
// the starved cache must still be bit-identical to uncached truth.
func TestSnapshotImportTinyBudget(t *testing.T) {
	in := readFixture(t, filepath.Join("testdata", "bimodal_m6_n24.json"))
	const eps = 0.5
	donor := NewCache(64 << 20)
	cold, err := SolveEPTAS(in, eps, WithSharedCache(donor))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ExportCacheSnapshot(donor, &buf); err != nil {
		t.Fatal(err)
	}

	tiny := NewCache(1) // one byte: nothing fits
	st, err := ImportCacheSnapshot(tiny, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("tiny-budget import must not fail: %v", err)
	}
	if st.SkippedBudget == 0 {
		t.Fatalf("tiny-budget import skipped nothing: %+v", st)
	}
	got, err := SolveEPTAS(in, eps, WithSharedCache(tiny))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "starved import vs donor cold", cold, got)
}
