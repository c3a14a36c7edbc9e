package pipeline

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/family"
	"repro/internal/memo"
	"repro/internal/numeric"
	"repro/internal/oracle"
	"repro/internal/pattern"
	"repro/internal/placer"
	"repro/internal/sched"
	"repro/internal/scratch"
	"repro/internal/transform"
)

// Result exposes every intermediate artifact of one makespan guess; the
// experiment suite and tests use it to measure per-lemma quantities
// (pattern counts, placement heights, repair work).
//
// A result served from the memo is decoded from the entry's payload
// (see EncodeResult): the counters and Final's machine assignment,
// bound to the requesting instance and guess. Its artifact pointers
// (Scaled, Info, RelInfo, RelSpace, Transformed, Space, Placed) are
// nil; the run that produced the entry returned them to its own caller
// only.
type Result struct {
	// Guess is the makespan guess the pipeline ran with.
	Guess float64
	// Signature is the memo key of the scaled-rounded instance (see
	// Engine): guesses with equal signatures have identical outcomes. It
	// is a fixed-size binary key (machine count, job count and a 128-bit
	// hash of the exponent vector) built without allocations.
	Signature numeric.Key
	// CacheHit reports that this result was served from the cross-guess
	// memo rather than a fresh pipeline execution.
	CacheHit bool
	// Attempts is the number of priority-cap ladder rungs tried (1 when
	// the first rung succeeded; meaningful only on accepted guesses).
	Attempts int
	// Scaled is the instance scaled by 1/Guess and rounded.
	Scaled *sched.Instance
	// Info is the classification of Scaled (nil for related-family
	// runs, whose classification is RelInfo).
	Info *classify.Info
	// RelInfo and RelSpace are the related-family classification and
	// configuration space (nil for bags-shaped runs).
	RelInfo  *classify.RelInfo
	RelSpace *pattern.RelSpace
	// Transformed is the Section 2.2 transformation, nil in AllPriority
	// mode.
	Transformed *transform.Transformed
	// Space is the enumerated pattern space.
	Space *pattern.Space
	// IntegerVars is the MILP's integral dimension.
	IntegerVars int
	// MILPNodes is the branch-and-bound node count of the oracle solve
	// (0 when the configuration DP decided the guess).
	MILPNodes int
	// OracleStats accounts the oracle solve of the accepted rung: the
	// backend and its deterministic work.
	OracleStats oracle.Stats
	// Placed is the schedule of the transformed (scaled) instance.
	Placed *sched.Schedule
	// PlaceStats reports placement repairs.
	PlaceStats placer.Stats
	// LiftStats reports lift work (zero value in AllPriority mode).
	LiftStats transform.LiftStats
	// Parts records which artifacts the run produced, and so which of
	// the scalars below describe it.
	Parts Parts
	// K, Q and BPrime are the classification constants of Info, and
	// PriorityBags counts its priority bags — over the transformed
	// vector when the transformation ran. A related run sets only K,
	// its number of large sizes (RelInfo.Sizes).
	K, Q, BPrime, PriorityBags int
	// Patterns is the size of the enumerated space: Space's pattern
	// count, or RelSpace's total over all speed classes.
	Patterns int
	// Final is the feasible schedule of the original instance.
	Final *sched.Schedule
}

// Parts is a set of pipeline artifacts. The snapshot codec ships it as
// its shape byte, so its bits must not change.
type Parts uint8

const (
	// PartInfo: the bags-shaped classification ran (K, Q, BPrime,
	// PriorityBags are set).
	PartInfo Parts = 1 << iota
	// PartSpace: the bags-shaped pattern space was enumerated
	// (Patterns is set).
	PartSpace
	// PartRelInfo: the related classification ran (K is set).
	PartRelInfo
	// PartRelSpace: the related configuration space was enumerated
	// (Patterns is set).
	PartRelSpace
)

// Metrics aggregates engine-level work counters over all pipeline
// executions of one solve, including rejected guesses.
type Metrics struct {
	// Runs counts started pipeline executions (the Classify..Lift
	// ladder), including executions that were later canceled.
	Runs int
	// CacheHits counts guesses decided without a pipeline execution of
	// their own — either from a committed memo entry or by waiting for
	// an in-flight execution of the same signature; CacheMisses counts
	// guesses that claimed their signature and ran the pipeline. With a
	// shared cache the split can vary between runs (a concurrent request
	// may or may not have stored or claimed the same key first) — the
	// results never do.
	CacheHits   int
	CacheMisses int
	// StageTime is the total wall-clock time per stage, keyed by
	// StageNames().
	StageTime map[string]time.Duration
}

// Engine runs the staged per-guess pipeline and memoizes outcomes across
// guesses — of one solve by default, or across solves and requests when
// Config.Cache supplies a shared memo.Cache.
//
// The memo key has two parts. The signature half is the canonical
// identity of the scaled-rounded instance: the machine count, the job
// count and the geometric exponent of every job in input order — equal
// exponent vectors mean bit-identical scaled instances. The auxiliary
// half hashes everything else a pipeline outcome depends on: the
// solve-constant Config knobs and the instance's bag vector (job order
// and bags are fixed within one solve, but a shared cache sees many).
// All stages from Classify on are deterministic functions of that
// combined key, so a key's accept/reject outcome, its statistics and
// its final machine assignment are all reusable verbatim — the memo
// keeps exactly those, as the snapshot codec's payload (EncodeResult),
// and a hit decodes them into a fresh Result; only the guess scalar
// (and, across requests, the original-instance binding of the final
// schedule) differs. Concurrent evaluations of equal-key guesses are
// deduplicated in flight by the cache: the first claims the key and
// runs, later ones wait for its outcome instead of running a duplicate
// pipeline. A rejection is committed as a negative entry (its text) and
// served like any other outcome. Every oracle budget is a work count,
// so every outcome but a cancellation is a function of the key and is
// committed; a cancellation abandons the claim and the next evaluation
// recomputes. See internal/memo for the exact semantics.
//
// An Engine is safe for concurrent use, and the serving layer shares
// one cache across the engines of concurrent requests.
type Engine struct {
	cfg     Config
	fam     family.Family
	cache   *memo.Cache
	cfgHash uint64

	mu      sync.Mutex
	metrics Metrics
	// lastIn/lastAux memoize the bag-vector hash of the most recent
	// instance: an engine serves one instance per solve, so the O(jobs)
	// hash is paid once, not per guess.
	lastIn  *sched.Instance
	lastAux uint64
}

// New returns an engine for one solve's worth of guesses under cfg.
// When cfg.Cache is non-nil the engine memoizes into that shared cache
// (and serves hits from it) instead of a private per-solve memo. A
// non-nil cfg.MILP.Progress hook makes outcomes caller-dependent in a
// way the memo key cannot capture, so it forces a private memo.
func New(cfg Config) *Engine {
	fam := cfg.Family
	if fam == nil {
		fam = family.Bags
	}
	e := &Engine{
		cfg:     cfg,
		fam:     fam,
		cfgHash: configHash(cfg),
		metrics: Metrics{
			StageTime: make(map[string]time.Duration),
		},
	}
	if !cfg.DisableMemo {
		if cfg.Cache != nil && cfg.MILP.Progress == nil {
			e.cache = cfg.Cache
		} else {
			e.cache = memo.New(0)
		}
	}
	return e
}

// Cache returns the memo the engine stores guess outcomes in — the
// shared cache when one was configured, the private per-solve memo
// otherwise, nil when memoization is disabled. The solver core retains
// it on each Result so an incremental re-solve can warm-start from the
// prior solve's entries.
func (e *Engine) Cache() *memo.Cache { return e.cache }

// Metrics returns a snapshot of the engine's aggregate counters.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.metrics
	m.StageTime = make(map[string]time.Duration, len(e.metrics.StageTime))
	for k, v := range e.metrics.StageTime {
		m.StageTime[k] = v
	}
	return m
}

// Run executes the pipeline for one makespan guess. An error means the
// guess was rejected (MILP infeasible, pattern explosion or placement
// failure) — for a guess at least the optimal makespan this indicates the
// rare solver-limit case, not infeasibility of the instance. A canceled
// or expired ctx aborts the run with ctx.Err().
//
// When the pattern space under the theoretical priority constant b'
// exceeds the enumeration limit, the run retries with progressively
// smaller priority caps (the paper's own degradation mechanism: fewer
// priority bags means more anonymous X slots, a smaller pattern space,
// and more work for the Lemma 7/11 repairs) before giving up.
func (e *Engine) Run(ctx context.Context, in *sched.Instance, guess float64) (*Result, error) {
	st := &State{In: in, Guess: guess, Cfg: e.cfg}
	if err := e.runStage(ctx, stageScale, st); err != nil {
		return nil, err
	}
	sig := signature(st)

	if e.cfg.DisableMemo {
		e.mu.Lock()
		e.metrics.Runs++
		e.mu.Unlock()
		res, err := e.runLadder(ctx, st)
		if res != nil {
			res.Signature = sig
		}
		return res, err
	}

	key := memo.Key{Sig: memo.Sig(sig), Aux: e.auxFor(in)}
	var (
		claimed  bool
		fresh    *Result
		freshErr error
	)
	payload, hit, err := e.cache.Do(ctx, key, func() ([]byte, error) {
		e.mu.Lock()
		e.metrics.CacheMisses++
		e.metrics.Runs++
		e.mu.Unlock()
		claimed = true
		res, err := e.runLadder(ctx, st)
		if res != nil {
			res.Signature = sig
		}
		fresh, freshErr = res, err
		if err != nil {
			return nil, err
		}
		return EncodeResult(res), nil
	})
	if !hit {
		// Either this call claimed the key — fresh is this engine's own
		// run with every artifact, or freshErr its rejection — or err is
		// this caller's ctx error from waiting.
		if claimed {
			return fresh, freshErr
		}
		return nil, err
	}
	e.mu.Lock()
	e.metrics.CacheHits++
	e.mu.Unlock()
	if err != nil {
		// The memoized error may embed the guess that produced it;
		// label the reuse so a logged rejection of guess A is never
		// mistaken for a fresh evaluation of guess B.
		return nil, fmt.Errorf("eptas: guess %g: memoized rejection: %w", guess, err)
	}
	// Bind the entry to this guess and instance: under a shared cache it
	// may have been produced by a different request whose instance
	// merely scale-rounds to the same signature, and the machine
	// assignment (a pure function of the key) is exactly as valid for
	// in, while makespans must be computed from in's own sizes.
	// MILPNodes and OracleStats are served as recorded on purpose: the
	// uncached path would re-run the identical deterministic oracle solve
	// and count the same work, so aggregated statistics match the
	// unmemoized search exactly.
	r, err := DecodeResult(payload)
	if err != nil {
		return nil, fmt.Errorf("eptas: guess %g: memo entry: %w", guess, err)
	}
	r.Guess, r.Signature, r.CacheHit = guess, sig, true
	if r.Final != nil {
		r.Final.Inst = in
	}
	return r, nil
}

// auxFor returns the auxiliary key half for in under this engine's
// config: the config hash folded with the problem family's fingerprint
// of the instance — the family tag plus whatever instance structure
// that family's post-Scale stages read (the bag partition for bags,
// the speed vector for related). Two instances with equal signatures
// and equal aux hashes are interchangeable from the Classify stage on;
// distinct families never share entries because their fingerprints
// start from distinct tags.
func (e *Engine) auxFor(in *sched.Instance) uint64 {
	e.mu.Lock()
	if in == e.lastIn {
		a := e.lastAux
		e.mu.Unlock()
		return a
	}
	e.mu.Unlock()
	h := e.fam.Fingerprint(e.cfgHash, in)
	e.mu.Lock()
	e.lastIn, e.lastAux = in, h
	e.mu.Unlock()
	return h
}

// arenas pools scratch arenas, one leased per pipeline execution
// (concurrent requests run several at once, each with its own). The
// pool is shared by every engine, so in steady state a run reuses slabs
// an earlier solve already grew and the per-guess allocation churn of
// the oracle and the placer disappears.
var arenas = sync.Pool{New: func() any { return new(scratch.Arena) }}

// runLadder runs the Classify..Lift stages, degrading the priority cap on
// pattern explosions and oracle work-budget limits. The run leases a
// scratch arena from the package pool; it is reset and returned when
// the ladder finishes, which is sound because no Result artifact lives
// in arena memory (plans, schedules and stats are all heap values — see
// scratch.Arena).
func (e *Engine) runLadder(ctx context.Context, st *State) (*Result, error) {
	ar := arenas.Get().(*scratch.Arena)
	st.Arena = ar
	defer func() {
		st.Arena = nil
		ar.Reset()
		arenas.Put(ar)
	}()
	caps := []int{e.cfg.BPrimeOverride}
	if e.cfg.BPrimeOverride == 0 && !e.cfg.AllPriority {
		caps = []int{0, 4, 2, 1}
	}
	if e.fam.Shape() == family.ShapeRelated {
		// The related pipeline has no priority bags to degrade; its
		// pattern space is bounded by the speed-class structure alone,
		// so the ladder is a single full-budget rung.
		caps = []int{0}
	}
	var lastErr error
	for i, bp := range caps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st.resetRung()
		st.BPrime = bp
		// Non-final ladder attempts get a short node budget: if the
		// theoretical priority constant makes the MILP expensive, a
		// smaller cap is almost always the faster route. The budget is a
		// node count, not wall-clock, so which rung succeeds does not
		// depend on machine load — per-guess outcomes (and hence the
		// whole search) stay deterministic under concurrency.
		st.NodeBudget = 0
		if i < len(caps)-1 && len(caps) > 1 {
			st.NodeBudget = ladderNodeBudget
		}
		err := e.runRung(ctx, st)
		if err == nil {
			return st.result(i + 1), nil
		}
		lastErr = err
		if !RetryWithSmallerCap(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// runRung executes one ladder attempt: every stage after Scale, in order,
// aborting between stages when ctx is done.
func (e *Engine) runRung(ctx context.Context, st *State) error {
	for _, s := range rungStagesFor(e.fam.Shape()) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := e.runStage(ctx, s, st); err != nil {
			return err
		}
	}
	return nil
}

// runStage times one stage execution into the engine metrics.
func (e *Engine) runStage(ctx context.Context, s Stage, st *State) error {
	start := time.Now()
	err := s.Run(ctx, st)
	elapsed := time.Since(start)
	e.mu.Lock()
	e.metrics.StageTime[s.Name()] += elapsed
	e.mu.Unlock()
	return err
}

// result snapshots the state of a successful run.
func (st *State) result(attempts int) *Result {
	r := &Result{
		Guess:       st.Guess,
		Attempts:    attempts,
		Scaled:      st.Scaled,
		Info:        st.Info,
		RelInfo:     st.RelInfo,
		RelSpace:    st.RelSpace,
		Transformed: st.Transformed,
		Space:       st.Space,
		IntegerVars: st.IntegerVars,
		MILPNodes:   st.MILPNodes,
		OracleStats: st.OracleStats,
		Placed:      st.Placed,
		PlaceStats:  st.PlaceStats,
		LiftStats:   st.LiftStats,
		Final:       st.Final,
	}
	r.summarize()
	return r
}

// summarize sets Parts and the scalar counters from the artifacts.
func (r *Result) summarize() {
	if r.Info != nil {
		r.Parts |= PartInfo
		r.K, r.Q, r.BPrime = r.Info.K, r.Info.Q, r.Info.BPrime
		prio := r.Info.Priority
		if r.Transformed != nil {
			prio = r.Transformed.Priority
		}
		r.PriorityBags = 0
		for _, p := range prio {
			if p {
				r.PriorityBags++
			}
		}
	}
	if r.Space != nil {
		r.Parts |= PartSpace
		r.Patterns = len(r.Space.Patterns)
	}
	if r.RelInfo != nil {
		r.Parts |= PartRelInfo
		r.K = len(r.RelInfo.Sizes)
	}
	if r.RelSpace != nil {
		r.Parts |= PartRelSpace
		r.Patterns = r.RelSpace.TotalPatterns()
	}
}

// hashMix folds x into h with the SplitMix64 permutation; used to build
// the auxiliary half of the memo key.
func hashMix(h, x uint64) uint64 {
	h += x + 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// configHash digests every Config knob that can change a pipeline
// outcome, so that one shared cache serves differently-configured
// requests without false sharing. DisableMemo and Cache itself are
// excluded (they select where results are stored, not what they are).
// MILP.Progress cannot be hashed and instead forces a private cache in
// New.
func configHash(cfg Config) uint64 {
	h := hashMix(0, math.Float64bits(cfg.Eps))
	h = hashMix(h, uint64(cfg.Mode))
	h = hashMix(h, uint64(int64(cfg.PatternLimit)))
	h = hashMix(h, uint64(int64(cfg.MILP.MaxNodes)))
	// The retired MILP TimeLimit, IntTol and LPMaxIters, always zero
	// now; still mixed so memo keys (and snapshots) do not move.
	h = hashMix(h, 0)
	h = hashMix(h, 0)
	h = hashMix(h, 0)
	h = hashMix(h, boolBit(cfg.MILP.StopAtFirst))
	h = hashMix(h, boolBit(cfg.MILP.DisableRounding))
	h = hashMix(h, oracleHash(cfg.Oracle))
	// The length of the retired portfolio backend list, always empty
	// now; still mixed so memo keys (and snapshots) do not move.
	h = hashMix(h, 0)
	h = hashMix(h, boolBit(cfg.AllPriority))
	h = hashMix(h, uint64(int64(cfg.BPrimeOverride)))
	h = hashMix(h, boolBit(cfg.Float64Ref))
	return h
}

// oracleHash is the value an oracle policy contributes to configHash.
// The two pins keep the values they hashed as when bnb was the zero
// Kind (bnb 0, cfgdp 1), so their memo keys and snapshots do not move.
// The default policy's outcomes can differ from either pin's — an
// accepted guess carries the plan of whichever backend decided it — so
// it gets a value of its own.
func oracleHash(k oracle.Kind) uint64 {
	switch k {
	case oracle.KindBnB:
		return 0
	case oracle.KindCfgDP:
		return 1
	default:
		return 2
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// signature builds the canonical memo key of a scaled-rounded instance:
// machine count, job count and a 128-bit hash of the geometric exponents
// of every job in input order. Equal exponent vectors imply bit-identical
// scaled instances (sizes are exact grid-quantized functions of the
// exponents), hence identical pipeline outcomes under a fixed Config; see
// numeric.Key for why hash collisions are not a practical concern. Unlike
// the previous string signature, building the key allocates nothing and
// map operations compare four words instead of O(jobs) bytes.
func signature(st *State) numeric.Key {
	return numeric.KeyOf(st.Scaled.Machines, st.Exps)
}
