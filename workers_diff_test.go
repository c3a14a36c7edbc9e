package bagsched

// Worker-count differential tests: the parallel oracle's core contract
// is that WithOracleWorkers is a pure throughput knob — every observable
// result (makespan, schedule, decision statistics) is bit-identical at
// every worker count, because speculation is adjudicated in logical time
// and adopted work is replayed through the sequential accounting. This
// suite enforces that contract corpus-wide: every committed fixture,
// every oracle backend, every problem family the fixture supports, at
// workers 1, 2, 4 and 8, against the sequential (workers<=1) baseline
// that is the exact pre-parallelism code path. CI runs it under the race
// detector, so it doubles as the data-race gate for the speculative
// machinery.
//
// Stats.Decision() is the comparison projection: it clears the
// load-dependent utilization telemetry (worker lane count, speculative
// claims and adoptions, race-loser counters) that legitimately varies
// with scheduling, leaving exactly the fields the determinism contract
// covers.

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// workerCounts are the lane counts the differential sweep compares; 1 is
// the sequential baseline the others must reproduce bit for bit.
var workerCounts = []int{1, 2, 4, 8}

// withSlowWallClock sets a MILP wall-clock limit far beyond anything
// this suite can hit. The determinism contract is conditioned on the
// *logical* budgets (node, pivot and DP-state counts) binding: a
// wall-clock limit is the one load-dependent limit, and under the race
// detector on a loaded runner the large fixtures could trip a tight one
// at some worker counts and not others, legitimately steering the
// classification ladder down different rungs. The pipeline sets none
// by default; the explicit, unreachable limit keeps the suite asserting
// exactly the contract the parallel oracle promises — identical results
// whenever the same logical budgets decide — whatever that default is.
func withSlowWallClock() Option {
	return func(o *core.Options) { o.MILP.TimeLimit = 10 * time.Minute }
}

// familyCasesFor returns every family/solve-option combination a fixture
// supports: uniform fixtures run as bags (the default) and as identical
// machines (which ignores the bag structure), speed-carrying fixtures as
// related machines.
func familyCasesFor(in *Instance) []struct {
	name string
	opts []Option
} {
	type fc = struct {
		name string
		opts []Option
	}
	if !in.Uniform() {
		return []fc{{"related", []Option{WithFamily(FamilyRelated)}}}
	}
	return []fc{
		{"bags", nil},
		{"identical", []Option{WithFamily(FamilyIdentical)}},
	}
}

func TestOracleWorkersDifferentialCorpus(t *testing.T) {
	files := instanceFixtures(t)
	if len(files) == 0 {
		t.Fatal("no fixtures under testdata/")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			in := readFixture(t, path)
			for _, fam := range familyCasesFor(in) {
				for _, bc := range backendCases {
					label := fam.name + "/" + bc.name
					var base *Result
					for _, w := range workerCounts {
						opts := append(append([]Option{}, fam.opts...), bc.opts...)
						opts = append(opts, WithOracleWorkers(w), withSlowWallClock())
						res, err := SolveEPTAS(in, 0.5, opts...)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", label, w, err)
						}
						if w == 1 {
							base = res
							continue
						}
						if res.Makespan != base.Makespan {
							t.Errorf("%s workers=%d: makespan %.17g differs from sequential %.17g",
								label, w, res.Makespan, base.Makespan)
						}
						if !reflect.DeepEqual(res.Schedule.Machine, base.Schedule.Machine) {
							t.Errorf("%s workers=%d: schedule differs from sequential", label, w)
						}
						if !reflect.DeepEqual(res.Stats.Decision(), base.Stats.Decision()) {
							t.Errorf("%s workers=%d: decision stats differ from sequential:\n%+v\nvs\n%+v",
								label, w, res.Stats.Decision(), base.Stats.Decision())
						}
					}
				}
			}
		})
	}
}

// TestOracleWorkersUtilizationTelemetry pins the shape of the worker
// telemetry: parallel solves report the lane count they ran with, and
// the Decision projection really does strip it (the differential test
// above would silently weaken if Decision started passing utilization
// fields through).
func TestOracleWorkersUtilizationTelemetry(t *testing.T) {
	in := readFixture(t, filepath.Join("testdata", "large_bimodal_m256_n384.json"))
	res, err := SolveEPTAS(in, 0.5, WithOracleWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OracleWorkers != 4 {
		t.Errorf("parallel solve reports %d worker lanes, want 4", res.Stats.OracleWorkers)
	}
	d := res.Stats.Decision()
	if d.OracleWorkers != 0 || d.OracleSteals != 0 || d.OracleSpecUsed != 0 {
		t.Errorf("Decision() leaks utilization telemetry: workers=%d steals=%d adopted=%d",
			d.OracleWorkers, d.OracleSteals, d.OracleSpecUsed)
	}
}
