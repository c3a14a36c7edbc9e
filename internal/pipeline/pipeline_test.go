package pipeline

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cfgmilp"
	"repro/internal/greedy"
	"repro/internal/memo"
	"repro/internal/milp"
	"repro/internal/numeric"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/workload"
)

func testInstanceAndGuess(t *testing.T) (*sched.Instance, float64) {
	t.Helper()
	inst := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 5, Jobs: 20, Bags: 8, Seed: 37,
	})
	ub, err := greedy.BagLPT(inst)
	if err != nil {
		t.Fatal(err)
	}
	return inst, ub.Makespan()
}

func TestStageNamesOrder(t *testing.T) {
	want := []string{"Scale", "Classify", "Transform", "Enumerate", "SolveOracle", "Place", "Lift"}
	got := StageNames()
	if len(got) != len(want) {
		t.Fatalf("StageNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StageNames()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// The exported list must agree with the stages the engine actually
	// runs.
	if stageScale.Name() != want[0] {
		t.Errorf("scale stage is named %q", stageScale.Name())
	}
	for i, s := range rungStages {
		if s.Name() != want[i+1] {
			t.Errorf("rung stage %d is named %q, want %q", i, s.Name(), want[i+1])
		}
	}
}

func TestEngineMemoHit(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	e := New(Config{Eps: 0.5})
	ctx := context.Background()

	first, err := e.Run(ctx, in, guess)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first run reported a cache hit")
	}
	second, err := e.Run(ctx, in, guess)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical guess missed the memo")
	}
	// The memo keeps only the codec's payload: a hit must report exactly
	// what the producing run encodes, under the same signature, and
	// carry none of the producer's artifacts.
	if got, want := EncodeResult(second), EncodeResult(first); !bytes.Equal(got, want) {
		t.Errorf("cache hit encodes to %x, the producer to %x", got, want)
	}
	if second.Signature != first.Signature || second.Final.Inst != in {
		t.Errorf("cache hit has signature %+v and instance %p, want %+v and %p", second.Signature, second.Final.Inst, first.Signature, in)
	}
	if first.Space == nil || first.Parts != PartInfo|PartSpace || first.Patterns != len(first.Space.Patterns) {
		t.Errorf("fresh run: parts %b, %d patterns, space %v", first.Parts, first.Patterns, first.Space != nil)
	}
	if second.Space != nil || second.Info != nil || second.Scaled != nil || second.Placed != nil || second.Transformed != nil {
		t.Error("cache hit carries pipeline artifacts the memo should not keep")
	}
	if second.Guess != guess {
		t.Errorf("cached result has guess %g, want %g", second.Guess, guess)
	}
	if len(second.Final.Machine) != len(first.Final.Machine) {
		t.Fatal("cached schedule has a different length")
	}
	for j := range first.Final.Machine {
		if second.Final.Machine[j] != first.Final.Machine[j] {
			t.Fatalf("cached schedule differs at job %d", j)
		}
	}
	// The final schedule must not alias the memoized one.
	second.Final.Machine[0] = -999
	if first.Final.Machine[0] == -999 {
		t.Error("cached result aliases the memoized machine slice")
	}

	m := e.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.Runs != 1 {
		t.Errorf("metrics = hits %d misses %d runs %d, want 1/1/1", m.CacheHits, m.CacheMisses, m.Runs)
	}
}

// TestEngineMemoEquivalenceClass checks the point of the memo: two
// *different* guesses whose scaled instances round to the same exponents
// share one pipeline execution.
func TestEngineMemoEquivalenceClass(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	e := New(Config{Eps: 0.5})
	ctx := context.Background()

	first, err := e.Run(ctx, in, guess)
	if err != nil {
		t.Fatal(err)
	}
	// A hair smaller guess: every size/guess ratio moves by a factor
	// 1+1e-9, far less than a rounding-interval width, so the exponent
	// vector — and with it the signature — is unchanged.
	near, err := e.Run(ctx, in, guess*(1-1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if near.Signature != first.Signature {
		t.Fatalf("signatures differ: %+v vs %+v", near.Signature, first.Signature)
	}
	if !near.CacheHit {
		t.Error("equivalent guess missed the memo")
	}
	if near.Guess == first.Guess {
		t.Error("clone kept the original guess scalar")
	}
}

func TestEngineMemoDisabled(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	e := New(Config{Eps: 0.5, DisableMemo: true})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		pr, err := e.Run(ctx, in, guess)
		if err != nil {
			t.Fatal(err)
		}
		if pr.CacheHit {
			t.Fatal("cache hit with the memo disabled")
		}
	}
	if m := e.Metrics(); m.CacheHits != 0 {
		t.Errorf("metrics report %d hits with the memo disabled", m.CacheHits)
	}
}

// TestEngineMemoizesRejections checks that accept and reject outcomes are
// cached alike: a guess far below the lower bound fails identically,
// without a second pipeline execution.
func TestEngineMemoizesRejections(t *testing.T) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Unit, Machines: 2, Jobs: 8, Bags: 4, Seed: 31,
	})
	e := New(Config{Eps: 0.5})
	ctx := context.Background()
	// OPT = 4 (8 unit jobs on 2 machines); guess 1 must be rejected.
	_, err1 := e.Run(ctx, in, 1)
	if err1 == nil {
		t.Fatal("impossible guess accepted")
	}
	_, err2 := e.Run(ctx, in, 1)
	if err2 == nil {
		t.Fatal("impossible guess accepted from cache")
	}
	// The cached rejection is labeled as memoized and wraps the original.
	if !strings.Contains(err2.Error(), err1.Error()) {
		t.Errorf("cached rejection %v does not wrap the original %v", err2, err1)
	}
	if !strings.Contains(err2.Error(), "memoized rejection") {
		t.Errorf("cached rejection %v is not labeled as memoized", err2)
	}
	m := e.Metrics()
	if m.Runs != 1 || m.CacheHits != 1 {
		t.Errorf("metrics = runs %d hits %d, want 1 run and 1 hit", m.Runs, m.CacheHits)
	}
}

// TestEngineCancellationNotMemoized checks that a ctx abort is never
// committed as the guess's outcome.
func TestEngineCancellationNotMemoized(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	e := New(Config{Eps: 0.5})

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(canceled, in, guess); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}

	pr, err := e.Run(context.Background(), in, guess)
	if err != nil {
		t.Fatalf("run after canceled run: %v", err)
	}
	if pr.CacheHit {
		t.Error("cancellation outcome was memoized")
	}
	m := e.Metrics()
	if m.CacheHits != 0 {
		t.Errorf("cache hits = %d after a canceled and a fresh run, want 0", m.CacheHits)
	}
	if m.Runs != 2 {
		t.Errorf("runs = %d, want 2 (the canceled attempt started a pipeline too)", m.Runs)
	}
}

// TestEngineInflightDedup checks that concurrent evaluations of one
// signature share a single pipeline execution: the first claims it, the
// rest wait for the outcome and report cache hits.
func TestEngineInflightDedup(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	e := New(Config{Eps: 0.5})
	const n = 8
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Run(context.Background(), in, guess)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		for j := range results[0].Final.Machine {
			if results[i].Final.Machine[j] != results[0].Final.Machine[j] {
				t.Fatalf("run %d schedule differs at job %d", i, j)
			}
		}
	}
	m := e.Metrics()
	if m.Runs != 1 {
		t.Errorf("runs = %d, want 1 (one claimant, %d waiters)", m.Runs, n-1)
	}
	if m.CacheHits != n-1 || m.CacheMisses != 1 {
		t.Errorf("cache = %d hits / %d misses, want %d/1", m.CacheHits, m.CacheMisses, n-1)
	}
}

// TestEngineStageTimes checks that every stage of a successful run is
// accounted for in the metrics.
func TestEngineStageTimes(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	e := New(Config{Eps: 0.5})
	if _, err := e.Run(context.Background(), in, guess); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	for _, name := range StageNames() {
		if _, ok := m.StageTime[name]; !ok {
			t.Errorf("no stage time recorded for %s", name)
		}
	}
}

// TestEngineWallClockStopNotMemoized: a guess whose MILP stops on a
// caller-set wall-clock limit is rejected with oracle.ErrTimeLimit after
// the whole ladder, and the outcome is never committed — a later
// evaluation of the same key runs the pipeline again.
func TestEngineWallClockStopNotMemoized(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	shared := memo.New(1 << 20)
	// TimeLimit is a branch-and-bound limit, so the engine pins bnb.
	e := New(Config{Eps: 0.5, Cache: shared, MILP: milp.Options{TimeLimit: time.Nanosecond}, Oracle: oracle.KindBnB})
	for i := 0; i < 2; i++ {
		if _, err := e.Run(context.Background(), in, guess); !errors.Is(err, oracle.ErrTimeLimit) {
			t.Fatalf("run %d: err %v, want oracle.ErrTimeLimit", i, err)
		}
	}
	if st := shared.Stats(); st.Entries != 0 || st.Negative != 0 {
		t.Fatalf("wall-clock rejection was memoized: %+v", st)
	}
	if m := e.Metrics(); m.Runs != 2 || m.CacheHits != 0 {
		t.Fatalf("metrics = runs %d hits %d, want 2 runs and no hit", m.Runs, m.CacheHits)
	}
}

// TestDefaultLimitsAreWorkCounts pins the determinism contract of the
// oracle budgets: by default every limit is a work count, so a guess's
// outcome, and with it every memo entry, depends on its key alone and
// never on machine load. Wall-clock time is the caller's context
// deadline.
func TestDefaultLimitsAreWorkCounts(t *testing.T) {
	st := &State{Cfg: Config{Eps: 0.5}}
	lim := st.oracleLimits()
	if lim.MILP.TimeLimit != 0 {
		t.Fatalf("default MILP wall-clock limit %v, want none", lim.MILP.TimeLimit)
	}
	if lim.MILP.MaxNodes <= 0 {
		t.Fatalf("default node budget %d, want a bound", lim.MILP.MaxNodes)
	}
}

// TestEngineHitSignature: a hit reports its key's signature, whether the
// entry was committed live or imported from a snapshot.
func TestEngineHitSignature(t *testing.T) {
	in, guess := testInstanceAndGuess(t)
	shared := memo.New(1 << 20)
	e := New(Config{Eps: 0.5, Cache: shared})
	first, err := e.Run(context.Background(), in, guess)
	if err != nil {
		t.Fatal(err)
	}
	if first.Signature == (numeric.Key{}) {
		t.Fatal("fresh run has a zero signature")
	}
	live, err := e.Run(context.Background(), in, guess)
	if err != nil || !live.CacheHit {
		t.Fatalf("second run: hit=%v err=%v", live != nil && live.CacheHit, err)
	}

	var buf bytes.Buffer
	if _, _, err := shared.Export(&buf); err != nil {
		t.Fatal(err)
	}
	imported := memo.New(1 << 20)
	if _, err := imported.Import(&buf, func(p []byte) error { _, err := DecodeResult(p); return err }); err != nil {
		t.Fatal(err)
	}
	warm, err := New(Config{Eps: 0.5, Cache: imported}).Run(context.Background(), in, guess)
	if err != nil || !warm.CacheHit {
		t.Fatalf("run on the imported cache: hit=%v err=%v", warm != nil && warm.CacheHit, err)
	}
	for name, r := range map[string]*Result{"live": live, "imported": warm} {
		if r.Signature != first.Signature {
			t.Errorf("%s hit has signature %+v, want %+v", name, r.Signature, first.Signature)
		}
		if !bytes.Equal(EncodeResult(r), EncodeResult(first)) {
			t.Errorf("%s hit differs from the producing run", name)
		}
	}
}

// TestConfigHashPinsUnchanged: pinned bnb and cfgdp solves keep the
// config hashes they had when bnb was the zero oracle Kind, so their
// memo keys and snapshots stay valid; the default policy hashes apart
// from both.
func TestConfigHashPinsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want uint64
	}{
		{Config{Eps: 0.5, Oracle: oracle.KindBnB}, 0xdaa8587591a86f6e},
		{Config{Eps: 0.5, Oracle: oracle.KindCfgDP}, 0x9507de14af855159},
		{Config{Eps: 0.33, Mode: cfgmilp.ModePaper, Oracle: oracle.KindBnB}, 0xd25f19f535ae8fdc},
		{Config{Eps: 0.33, Mode: cfgmilp.ModePaper, Oracle: oracle.KindCfgDP}, 0x668aa384fbefb5f3},
	} {
		if got := configHash(tc.cfg); got != tc.want {
			t.Errorf("configHash(%+v) = %#x, want %#x", tc.cfg, got, tc.want)
		}
		def, bnb, dp := tc.cfg, tc.cfg, tc.cfg
		def.Oracle, bnb.Oracle, dp.Oracle = oracle.KindDefault, oracle.KindBnB, oracle.KindCfgDP
		if h := configHash(def); h == configHash(bnb) || h == configHash(dp) {
			t.Errorf("default policy shares a config hash with a pin at %+v", def)
		}
	}
}
