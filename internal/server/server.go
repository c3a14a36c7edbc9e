// Package server is the long-running solve service: an HTTP/JSON front
// end that shares one bounded cross-request memo cache (internal/memo)
// and one admission-controlled worker queue (internal/batch) across all
// requests, so repeated and overlapping workloads stop re-paying the
// EPTAS guess-enumeration cost.
//
// Endpoints:
//
//	POST /v1/solve   {"instance": {...}, "eps": 0.5, "backend": "bnb",
//	                  "family": "bags", "timeout_ms": 1000,
//	                  "no_cache": false, "deadline_ms": 50,
//	                  "min_quality": 1.5, "adaptive": true}
//	                 — the solve knobs can also arrive nested under
//	                 "spec", which wins wholesale over the flat fields
//	POST /v1/batch   {"instances": [{...}, ...], "eps": 0.5, ...}
//	POST /v1/resolve {"instance": {...}, "delta": {"resize": [...]},
//	                  "prior_makespan": 3.2, "prior_guess": 3.1,
//	                  "prior_assignment": [0,1,...], "repair": false, ...}
//	GET  /v1/stats   cache/queue/latency counters, per-family solve
//	                 counts and latencies; ?window=N adds percentiles
//	                 over the last N solves
//	GET  /healthz    liveness
//	GET  /metrics    Prometheus-style text metrics
//	GET  /debug/vars expvar (includes the same stats payload after
//	                 PublishExpvar)
//
// Request lifecycle: decode and validate (400 on malformed bodies),
// derive the per-request deadline (timeout_ms clamped to the server
// maximum, 504 when it expires), coalesce with identical in-flight
// requests (one solve, many responses), then run through the shared
// queue — admission control rejects work beyond workers+depth with 503
// instead of queueing unboundedly. Every admitted solve uses the shared
// cache (unless the request opts out with no_cache), so the service
// converges to serving hot workloads from memory.
//
// Determinism under caching: responses are bit-identical with the cache
// on, off, cold or warm — the cache is a latency optimization, never a
// semantic one. The differential tests at the repository root and in
// this package enforce that corpus-wide.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"expvar"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/family"
	"repro/internal/memo"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/wire"
)

// Defaults for Config zero values.
const (
	DefaultEps        = 0.5
	DefaultCacheBytes = 64 << 20
	DefaultMaxBody    = 8 << 20
	DefaultMaxTimeout = 2 * time.Minute
)

// Config configures a Server; zero values select the defaults above.
type Config struct {
	// Workers bounds concurrent solves (<= 0 selects GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted-but-waiting solves (< 0 selects 4x
	// workers; 0 disables queueing). Work beyond Workers+QueueDepth is
	// rejected with 503.
	QueueDepth int
	// Cache is the shared cross-request memo; nil builds one bounded to
	// CacheBytes.
	Cache *memo.Cache
	// CacheBytes bounds the cache built when Cache is nil (<= 0 selects
	// DefaultCacheBytes).
	CacheBytes int64
	// Eps is the accuracy used when a request does not set one.
	Eps float64
	// Backend is the oracle backend used when a request does not set
	// one.
	Backend oracle.Kind
	// MaxBodyBytes bounds request bodies (<= 0 selects DefaultMaxBody).
	MaxBodyBytes int64
	// DefaultTimeout bounds solves whose request sets no timeout_ms
	// (0 = bounded only by MaxTimeout).
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-request timeouts (<= 0 selects
	// DefaultMaxTimeout).
	MaxTimeout time.Duration
	// Planner is the latency cost model behind SLO-aware ("adaptive")
	// requests; nil builds a fresh one. Every successful solve feeds it
	// (observation never changes answers), and adaptive requests consult
	// it at admission to pick the cheapest configuration predicted to
	// meet their deadline. Share one model across restarts by exporting
	// and importing it alongside the cache snapshot (see plan.Export).
	Planner *plan.Model
}

// Server is the solve service. Create with New; serve via Handler.
type Server struct {
	cfg     Config
	cache   *memo.Cache
	queue   *batch.Queue
	flight  *flight
	lat     *LatencyRing
	planner *plan.Model
	// fams tracks per-problem-family solve counts and latencies, keyed
	// by family name; built once in New for every registered family.
	fams  map[string]*famStats
	start time.Time

	requests    atomic.Int64 // HTTP requests accepted into a handler
	solves      atomic.Int64 // successful solve responses (incl. batch items)
	solveErrors atomic.Int64 // failed solves (solver errors, not 4xx decode)
	coalesced   atomic.Int64 // solves served by joining an identical in-flight request
	timeouts    atomic.Int64 // solves aborted by per-request deadlines
	resolves    atomic.Int64 // successful incremental re-solves (subset of solves)
	repairs     atomic.Int64 // re-solves answered by the placement-repair fast path

	// SLO-aware serving counters: adaptive-mode solves, how many of them
	// answered from a rung coarser than requested, how many ran
	// best-effort (nothing was predicted to fit the deadline and no
	// quality floor forced a refusal), and how many were refused as
	// unattainable (422).
	adaptiveSolves atomic.Int64
	degraded       atomic.Int64
	bestEffort     atomic.Int64
	unattainable   atomic.Int64

	// Cache snapshot warm-start counters (see RecordSnapshot): how many
	// snapshot imports ran, how many entries they loaded into the shared
	// cache and how many they skipped (already present, over budget, or
	// undecodable).
	snapshotLoads   atomic.Int64
	snapshotEntries atomic.Int64
	snapshotSkipped atomic.Int64
}

// RecordSnapshot notes one cache snapshot import (a warm start) so it
// shows up in /v1/stats and /metrics alongside the cache counters.
func (s *Server) RecordSnapshot(loaded, skipped int) {
	s.snapshotLoads.Add(1)
	s.snapshotEntries.Add(int64(loaded))
	s.snapshotSkipped.Add(int64(skipped))
}

// New returns a service with one shared cache and one shared queue for
// its whole lifetime.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Eps == 0 {
		cfg.Eps = DefaultEps
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBody
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	cache := cfg.Cache
	if cache == nil {
		cache = memo.New(cfg.CacheBytes)
	}
	planner := cfg.Planner
	if planner == nil {
		planner = plan.NewModel()
	}
	fams := make(map[string]*famStats, len(family.List()))
	for _, f := range family.List() {
		fams[f.Name()] = &famStats{lat: NewLatencyRing(1 << 12)}
	}
	return &Server{
		cfg:     cfg,
		cache:   cache,
		queue:   batch.NewQueue(cfg.Workers, cfg.QueueDepth),
		flight:  newFlight(),
		lat:     NewLatencyRing(1 << 14),
		planner: planner,
		fams:    fams,
		start:   time.Now(),
	}
}

// famStats is the per-family slice of the serving metrics.
type famStats struct {
	solves atomic.Int64
	lat    *LatencyRing
}

// Cache returns the shared cross-request memo.
func (s *Server) Cache() *memo.Cache { return s.cache }

// Planner returns the shared latency cost model (never nil). The serve
// command exports it on shutdown next to the cache snapshot.
func (s *Server) Planner() *plan.Model { return s.planner }

// Workers reports the effective worker count; QueueDepth the effective
// admission queue depth.
func (s *Server) Workers() int    { return s.queue.Workers() }
func (s *Server) QueueDepth() int { return s.queue.Depth() }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/resolve", s.handleResolve)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

var expvarOnce sync.Once

// PublishExpvar exposes the stats payload under the expvar key
// "bagsched" (visible at GET /debug/vars). Only the first server in a
// process publishes; later calls are no-ops (the expvar registry is
// global and write-once).
func (s *Server) PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("bagsched", expvar.Func(func() any { return s.statsPayload(0) }))
	})
}

// The request/response document types live in internal/wire — the
// transport-neutral codec shared with the shard router — so this file
// only keeps the HTTP plumbing around them.

// spec is one decoded, validated solve: the instance, the resolved
// solver options, the family name (for the per-family counters) and the
// coalescing key.
type spec struct {
	in  *sched.Instance
	opt core.Options
	fam string
	key [sha256.Size]byte
}

// resolve validates a request's solve spec and builds the solve spec.
// A non-nil error is a client error (400).
func (s *Server) resolve(in *sched.Instance, req wire.SolveSpec) (*spec, error) {
	if in == nil {
		return nil, errors.New("missing \"instance\"")
	}
	// oracle_workers selects nothing (every oracle solve is sequential);
	// it is accepted for compatibility, and a negative value stays a
	// client error.
	if req.OracleWorkers < 0 {
		return nil, fmt.Errorf("\"oracle_workers\" must be >= 0, got %d", req.OracleWorkers)
	}
	eps := req.Eps
	if eps == 0 {
		eps = s.cfg.Eps
	}
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("\"eps\" must be in (0,1), got %g", eps)
	}
	if req.DeadlineMS < 0 {
		return nil, fmt.Errorf("\"deadline_ms\" must be >= 0, got %d", req.DeadlineMS)
	}
	if req.MinQuality != 0 && req.MinQuality < 1 {
		return nil, fmt.Errorf("\"min_quality\" must be 0 (no floor) or >= 1, got %g", req.MinQuality)
	}
	backend := s.cfg.Backend
	if req.Backend != "" {
		var err error
		backend, err = oracle.ParseKind(req.Backend)
		if err != nil {
			return nil, err
		}
	}
	fam, err := family.Parse(req.Family)
	if err != nil {
		return nil, err
	}
	opt := core.Options{Eps: eps, Family: fam, Oracle: oracle.Selection{Backend: backend}}
	if !req.NoCache {
		opt.Cache = s.cache
	}
	// Every solve feeds the cost model (observation is result-transparent);
	// only adaptive requests consult it.
	opt.Planner = s.planner
	opt.Adaptive = req.Adaptive
	opt.MinQuality = req.MinQuality
	if req.DeadlineMS > 0 {
		opt.Deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if req.Adaptive && req.Backend == "" {
		// No pinned backend: let the planner pick among the family's
		// exact backends by predicted latency.
		opt.PlanBackends = planCandidates(fam.Name(), backend)
	}

	w := newKeyWriter()
	w.instance(in)
	// The family is part of the coalescing identity: the same instance
	// solved as different families is different work with different
	// answers. The SLO knobs are hashed because adaptive requests with
	// different budgets may legitimately get different answers. The
	// timeout is not: every request bounds its own wait for a shared
	// solve (see flight.do).
	w.float(eps)
	w.word(uint64(backend))
	w.text(fam.Name())
	w.flag(req.NoCache)
	w.word(uint64(req.DeadlineMS))
	w.float(req.MinQuality)
	w.flag(req.Adaptive)
	sp := &spec{in: in, opt: opt, fam: fam.Name()}
	w.sum(sp.key[:0])
	return sp, nil
}

// keyWriter feeds a fixed binary encoding to the SHA-256 of a
// coalescing key: every value is one little-endian 64-bit word (strings
// are a length word, then their bytes), streamed through a small buffer
// so that hashing an instance allocates nothing in proportion to it.
type keyWriter struct {
	h   hash.Hash
	buf []byte
}

func newKeyWriter() *keyWriter {
	return &keyWriter{h: sha256.New(), buf: make([]byte, 0, 512)}
}

func (w *keyWriter) word(v uint64) {
	if len(w.buf)+8 > cap(w.buf) {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *keyWriter) flag(b bool) {
	if b {
		w.word(1)
	} else {
		w.word(0)
	}
}

// float encodes f's bits with -0 folded into +0: the two mean the same
// to every knob and prior fact, and json.Marshal drops a -0 omitempty
// field, so a re-encoded body keeps its key.
func (w *keyWriter) float(f float64) {
	if f == 0 {
		f = 0
	}
	w.word(math.Float64bits(f))
}

func (w *keyWriter) text(s string) {
	w.word(uint64(len(s)))
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
	io.WriteString(w.h, s)
}

// instance encodes in as its machine count, bag count, speed count and
// speed bits, job count, then each job's id, size bits and bag. Bodies
// that decode to the same instance — whatever their whitespace, key
// order or number spelling — encode alike.
func (w *keyWriter) instance(in *sched.Instance) {
	w.word(uint64(in.Machines))
	w.word(uint64(in.NumBags))
	w.word(uint64(len(in.Speeds)))
	for _, s := range in.Speeds {
		w.float(s)
	}
	w.word(uint64(len(in.Jobs)))
	for _, j := range in.Jobs {
		w.word(uint64(j.ID))
		w.float(j.Size)
		w.word(uint64(j.Bag))
	}
}

// delta encodes d as each edit list's length and entries (add, remove,
// resize, rebag), then the machine adjustment and the added speeds.
func (w *keyWriter) delta(d *sched.Delta) {
	w.word(uint64(len(d.Add)))
	for _, j := range d.Add {
		w.word(uint64(j.ID))
		w.float(j.Size)
		w.word(uint64(j.Bag))
	}
	w.word(uint64(len(d.Remove)))
	for _, id := range d.Remove {
		w.word(uint64(id))
	}
	w.word(uint64(len(d.Resize)))
	for _, r := range d.Resize {
		w.word(uint64(r.ID))
		w.float(r.Size)
	}
	w.word(uint64(len(d.Rebag)))
	for _, r := range d.Rebag {
		w.word(uint64(r.ID))
		w.word(uint64(r.Bag))
	}
	w.word(uint64(d.Machines))
	w.word(uint64(len(d.AddSpeeds)))
	for _, sp := range d.AddSpeeds {
		w.float(sp)
	}
}

// sum appends the hash of everything written to dst.
func (w *keyWriter) sum(dst []byte) []byte {
	w.h.Write(w.buf)
	return w.h.Sum(dst)
}

// planCandidates lists the oracle backends the planner may pick among
// for an adaptive request that pinned none, in the preference order
// that breaks ties between equal predictions: the server default first,
// then the other exact backend. The configuration-DP oracle declines
// related-machines models, so related requests stay on branch-and-bound
// whatever the server default.
func planCandidates(familyName string, def oracle.Kind) []oracle.Kind {
	switch {
	case familyName == "related":
		return []oracle.Kind{oracle.KindBnB}
	case def == oracle.KindCfgDP:
		return []oracle.Kind{oracle.KindCfgDP, oracle.KindBnB}
	default:
		return []oracle.Kind{oracle.KindBnB, oracle.KindCfgDP}
	}
}

// solveContext derives the per-request solve context from the client
// connection, the requested timeout and (when set) the SLO deadline —
// whichever bound is tighter wins.
func (s *Server) solveContext(r *http.Request, req wire.SolveSpec) (context.Context, context.CancelFunc, error) {
	if req.TimeoutMS < 0 {
		return nil, nil, fmt.Errorf("\"timeout_ms\" must be >= 0, got %d", req.TimeoutMS)
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout <= 0 || timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	if d := time.Duration(req.DeadlineMS) * time.Millisecond; d > 0 && d < timeout {
		timeout = d
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, nil
}

// solveOne runs one spec through coalescing, admission and the queue.
// The task is sp's work — a plain solve, or an incremental re-solve
// when it carries Prior and Delta.
func (s *Server) solveOne(ctx context.Context, sp *spec, task batch.Task) (out batch.Outcome, admitted, shared bool) {
	out, admitted, shared = s.flight.do(ctx, sp.key, func() (batch.Outcome, bool) {
		return s.queue.Do(ctx, task)
	})
	if shared {
		s.coalesced.Add(1)
	}
	return out, admitted, shared
}

// solveTask is the queue task of a plain (non-resolve) spec.
func (sp *spec) solveTask() batch.Task {
	return batch.Task{Instance: sp.in, Options: sp.opt}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req wire.SolveRequest
	if !s.decode(w, r, &req) {
		return
	}
	rspec := req.EffectiveSpec()
	sp, err := s.resolve(req.Instance, rspec)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: err.Error()})
		return
	}
	ctx, cancel, err := s.solveContext(r, rspec)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: err.Error()})
		return
	}
	defer cancel()

	start := time.Now()
	out, admitted, shared := s.solveOne(ctx, sp, sp.solveTask())
	elapsed := time.Since(start)
	if !admitted {
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, wire.ErrorResponse{Error: "queue full"})
		return
	}
	if out.Err != nil {
		s.writeSolveError(w, out.Err)
		return
	}
	body, err := encode(wire.FromResult(out.Result, shared, elapsed))
	if err != nil {
		s.writeSolveError(w, err)
		return
	}
	s.solves.Add(1)
	s.lat.Record(elapsed)
	s.recordFamily(sp.fam, elapsed)
	s.recordQuality(sp.opt.Adaptive, out.Result.Quality)
	send(w, http.StatusOK, body)
}

// resolveDelta validates a resolve request and builds its spec plus the
// reconstructed prior result the warm solve starts from. The spec's
// coalescing key covers everything the spec of a plain solve covers and
// the resolve's own identity on top — the delta and every prior fact —
// so identical concurrent re-solves coalesce while a resolve never
// shares an outcome with the plain solve of the same instance. A
// non-nil error is a client error (400).
func (s *Server) resolveDelta(req *wire.ResolveRequest) (*spec, *core.Result, error) {
	sp, err := s.resolve(req.Instance, req.EffectiveSpec())
	if err != nil {
		return nil, nil, err
	}
	if req.PriorMakespan < 0 || req.PriorGuess < 0 {
		return nil, nil, errors.New("\"prior_makespan\" and \"prior_guess\" must be >= 0")
	}
	if n := len(req.PriorAssignment); n != 0 && n != len(req.Instance.Jobs) {
		return nil, nil, fmt.Errorf("\"prior_assignment\" has %d entries for %d jobs", n, len(req.Instance.Jobs))
	}
	if req.Repair && len(req.PriorAssignment) == 0 {
		return nil, nil, errors.New("\"repair\" needs \"prior_assignment\"")
	}
	sp.opt.Repair = req.Repair

	prior := &core.Result{Input: req.Instance, Makespan: req.PriorMakespan, Options: sp.opt}
	prior.Stats.FinalGuess = req.PriorGuess
	if len(req.PriorAssignment) > 0 {
		prior.Schedule = &sched.Schedule{Inst: req.Instance, Machine: req.PriorAssignment}
	}

	// The resolve's key hashes the plain solve's key, a tag, the delta
	// and every prior fact, so it never equals a plain solve's key.
	w := newKeyWriter()
	for i := 0; i < len(sp.key); i += 8 {
		w.word(binary.LittleEndian.Uint64(sp.key[i:]))
	}
	w.text("resolve")
	w.delta(&req.Delta)
	w.float(req.PriorMakespan)
	w.float(req.PriorGuess)
	w.flag(req.Repair)
	w.word(uint64(len(req.PriorAssignment)))
	for _, m := range req.PriorAssignment {
		w.word(uint64(m))
	}
	w.sum(sp.key[:0])
	return sp, prior, nil
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req wire.ResolveRequest
	if !s.decode(w, r, &req) {
		return
	}
	sp, prior, err := s.resolveDelta(&req)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: err.Error()})
		return
	}
	ctx, cancel, err := s.solveContext(r, req.EffectiveSpec())
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: err.Error()})
		return
	}
	defer cancel()

	start := time.Now()
	out, admitted, shared := s.solveOne(ctx, sp, batch.Task{Options: sp.opt, Prior: prior, Delta: &req.Delta})
	elapsed := time.Since(start)
	if !admitted {
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, wire.ErrorResponse{Error: "queue full"})
		return
	}
	if out.Err != nil {
		s.writeSolveError(w, out.Err)
		return
	}
	body, err := encode(wire.FromResolveResult(out.Result, shared, elapsed))
	if err != nil {
		s.writeSolveError(w, err)
		return
	}
	s.solves.Add(1)
	s.resolves.Add(1)
	if out.Result.Stats.Repaired {
		s.repairs.Add(1)
	}
	s.lat.Record(elapsed)
	s.recordFamily(sp.fam, elapsed)
	s.recordQuality(sp.opt.Adaptive, out.Result.Quality)
	send(w, http.StatusOK, body)
}

// recordFamily feeds the per-family counters of one successful solve.
func (s *Server) recordFamily(fam string, elapsed time.Duration) {
	if fs, ok := s.fams[fam]; ok {
		fs.solves.Add(1)
		fs.lat.Record(elapsed)
	}
}

// recordQuality feeds the SLO-aware serving counters of one successful
// solve.
func (s *Server) recordQuality(adaptive bool, q core.Quality) {
	if adaptive {
		s.adaptiveSolves.Add(1)
	}
	if q.Degraded {
		s.degraded.Add(1)
	}
	if q.BestEffort {
		s.bestEffort.Add(1)
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req wire.BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Instances) == 0 {
		WriteJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: "missing \"instances\""})
		return
	}
	bspec := req.EffectiveSpec()
	specs := make([]*spec, len(req.Instances))
	for i, in := range req.Instances {
		sp, err := s.resolve(in, bspec)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: fmt.Sprintf("instance %d: %v", i, err)})
			return
		}
		specs[i] = sp
	}
	ctx, cancel, err := s.solveContext(r, bspec)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: err.Error()})
		return
	}
	defer cancel()

	start := time.Now()
	items := make([]wire.BatchItem, len(specs))
	// Fan out at most one item per worker slot: a batch wider than the
	// whole admission window (workers+depth) must not race itself into
	// 'queue full' on an idle server — excess items wait here, inside
	// the request, while still competing fairly with concurrent /v1/solve
	// traffic at the admission gate below.
	fanout := make(chan struct{}, s.queue.Workers())
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp *spec) {
			defer wg.Done()
			select {
			case fanout <- struct{}{}:
			case <-ctx.Done():
				s.countSolveError(ctx.Err())
				items[i] = wire.BatchItem{Error: ctx.Err().Error()}
				return
			}
			defer func() { <-fanout }()
			itemStart := time.Now()
			out, admitted, shared := s.solveOne(ctx, sp, sp.solveTask())
			itemElapsed := time.Since(itemStart)
			switch {
			case !admitted:
				items[i] = wire.BatchItem{Error: "queue full"}
			case out.Err != nil:
				s.countSolveError(out.Err)
				items[i] = wire.BatchItem{Error: out.Err.Error()}
			default:
				s.solves.Add(1)
				s.lat.Record(itemElapsed)
				s.recordFamily(sp.fam, itemElapsed)
				s.recordQuality(sp.opt.Adaptive, out.Result.Quality)
				items[i] = wire.BatchItem{SolveResult: wire.FromResult(out.Result, shared, itemElapsed)}
			}
		}(i, sp)
	}
	wg.Wait()
	if err := WriteJSON(w, http.StatusOK, wire.BatchResponse{Outcomes: items, ElapsedUS: time.Since(start).Microseconds()}); err != nil {
		s.countSolveError(err)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	window := 0
	if v := r.URL.Query().Get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			WriteJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: "\"window\" must be a positive integer"})
			return
		}
		window = n
	}
	WriteJSON(w, http.StatusOK, s.statsPayload(window))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	cs := s.cache.Stats()
	all := s.lat.Percentiles(0)
	type metric struct {
		name, typ string
		value     int64
	}
	for _, m := range []metric{
		{"bagsched_requests_total", "counter", s.requests.Load()},
		{"bagsched_solves_total", "counter", s.solves.Load()},
		{"bagsched_solve_errors_total", "counter", s.solveErrors.Load()},
		{"bagsched_solves_coalesced_total", "counter", s.coalesced.Load()},
		{"bagsched_solves_rejected_total", "counter", s.queue.Rejected()},
		{"bagsched_solve_timeouts_total", "counter", s.timeouts.Load()},
		{"bagsched_resolves_total", "counter", s.resolves.Load()},
		{"bagsched_resolves_repaired_total", "counter", s.repairs.Load()},
		{"bagsched_queue_running", "gauge", s.queue.Running()},
		{"bagsched_queue_queued", "gauge", s.queue.Queued()},
		{"bagsched_cache_hits_total", "counter", cs.Hits},
		{"bagsched_cache_misses_total", "counter", cs.Misses},
		{"bagsched_cache_evictions_total", "counter", cs.Evictions},
		{"bagsched_cache_entries", "gauge", int64(cs.Entries)},
		{"bagsched_cache_cost_bytes", "gauge", cs.Cost},
		{"bagsched_cache_max_cost_bytes", "gauge", cs.MaxCost},
		{"bagsched_solve_latency_p50_microseconds", "gauge", all.P50},
		{"bagsched_solve_latency_p90_microseconds", "gauge", all.P90},
		{"bagsched_solve_latency_p99_microseconds", "gauge", all.P99},
		{"bagsched_snapshot_loads_total", "counter", s.snapshotLoads.Load()},
		{"bagsched_snapshot_entries_loaded_total", "counter", s.snapshotEntries.Load()},
		{"bagsched_snapshot_entries_skipped_total", "counter", s.snapshotSkipped.Load()},
		{"bagsched_adaptive_solves_total", "counter", s.adaptiveSolves.Load()},
		{"bagsched_degraded_solves_total", "counter", s.degraded.Load()},
		{"bagsched_best_effort_solves_total", "counter", s.bestEffort.Load()},
		{"bagsched_unattainable_total", "counter", s.unattainable.Load()},
		{"bagsched_plan_model_cells", "gauge", int64(s.planner.Snapshot().Cells)},
		{"bagsched_plan_model_observations", "counter", int64(s.planner.Snapshot().Observations)},
	} {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", m.name, m.typ, m.name, m.value)
	}
	fmt.Fprintf(w, "# TYPE bagsched_family_solves_total counter\n")
	for _, f := range family.List() {
		fs := s.fams[f.Name()]
		fmt.Fprintf(w, "bagsched_family_solves_total{family=%q} %d\n", f.Name(), fs.solves.Load())
	}
	fmt.Fprintf(w, "# TYPE bagsched_family_solve_latency_p50_microseconds gauge\n")
	for _, f := range family.List() {
		fs := s.fams[f.Name()]
		fmt.Fprintf(w, "bagsched_family_solve_latency_p50_microseconds{family=%q} %d\n", f.Name(), fs.lat.Percentiles(0).P50)
	}
}

// statsPayload builds the GET /v1/stats (and expvar) document. window >
// 0 adds percentiles over the last window recorded solves — the load
// driver uses this to compare cold and warm replay passes.
func (s *Server) statsPayload(window int) map[string]any {
	cs := s.cache.Stats()
	payload := map[string]any{
		"uptime_s": time.Since(s.start).Seconds(),
		"server": map[string]any{
			"requests":     s.requests.Load(),
			"solves":       s.solves.Load(),
			"solve_errors": s.solveErrors.Load(),
			"coalesced":    s.coalesced.Load(),
			"rejected":     s.queue.Rejected(),
			"timeouts":     s.timeouts.Load(),
			"resolves":     s.resolves.Load(),
			"repaired":     s.repairs.Load(),
			"active":       s.queue.Running(),
			"queued":       s.queue.Queued(),
			"workers":      s.queue.Workers(),
			"queue_depth":  s.queue.Depth(),
		},
		"cache": map[string]any{
			"hits":             cs.Hits,
			"misses":           cs.Misses,
			"inflight_waits":   cs.Waits,
			"evictions":        cs.Evictions,
			"entries":          cs.Entries,
			"negative_entries": cs.Negative,
			"cost_bytes":       cs.Cost,
			"max_cost_bytes":   cs.MaxCost,
		},
		"latency": s.lat.Percentiles(0),
		"snapshot": map[string]any{
			"loads":           s.snapshotLoads.Load(),
			"entries_loaded":  s.snapshotEntries.Load(),
			"entries_skipped": s.snapshotSkipped.Load(),
		},
		"plan": func() map[string]any {
			ps := s.planner.Snapshot()
			return map[string]any{
				"adaptive_solves": s.adaptiveSolves.Load(),
				"degraded":        s.degraded.Load(),
				"best_effort":     s.bestEffort.Load(),
				"unattainable":    s.unattainable.Load(),
				"model_cells":     ps.Cells,
				"model_version":   ps.Version,
				"observations":    ps.Observations,
			}
		}(),
	}
	families := make(map[string]any, len(s.fams))
	for _, f := range family.List() {
		fs := s.fams[f.Name()]
		fam := map[string]any{
			"solves":  fs.solves.Load(),
			"latency": fs.lat.Percentiles(0),
		}
		if window > 0 {
			fam["window"] = fs.lat.Percentiles(window)
		}
		families[f.Name()] = fam
	}
	payload["families"] = families
	if window > 0 {
		payload["window"] = s.lat.Percentiles(window)
	}
	return payload
}

// decode reads a JSON body strictly via the shared wire codec (unknown
// fields and trailing data are errors) and answers 400 itself when the
// body is malformed.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := wire.Decode(body, dst); err != nil {
		WriteJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: err.Error()})
		return false
	}
	return true
}

// writeSolveError maps a solve error to its status: 422 "unattainable"
// when the planner refused an adaptive request whose quality floor no
// rung can meet within its deadline, 504 for the per-request deadline,
// 499-ish client cancellation reported as 503 (the client is gone
// either way), anything else 422 — the body was well-formed but the
// instance cannot be solved as asked (e.g. an infeasible bag).
func (s *Server) writeSolveError(w http.ResponseWriter, err error) {
	s.countSolveError(err)
	switch {
	case errors.Is(err, plan.ErrUnattainable):
		s.unattainable.Add(1)
		WriteJSON(w, http.StatusUnprocessableEntity, wire.ErrorResponse{Error: "unattainable: " + err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		WriteJSON(w, http.StatusGatewayTimeout, wire.ErrorResponse{Error: "solve deadline exceeded"})
	case errors.Is(err, context.Canceled):
		WriteJSON(w, http.StatusServiceUnavailable, wire.ErrorResponse{Error: "request canceled"})
	default:
		WriteJSON(w, http.StatusUnprocessableEntity, wire.ErrorResponse{Error: err.Error()})
	}
}

func (s *Server) countSolveError(err error) {
	s.solveErrors.Add(1)
	if errors.Is(err, context.DeadlineExceeded) {
		s.timeouts.Add(1)
	}
}

// bodyPool recycles response buffers. A buffer grown past
// maxPooledBody is dropped, so one large response does not pin its
// memory.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// encode writes v's wire encoding into a pooled buffer, which send
// returns to the pool. On error no buffer is held.
func encode(v any) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := wire.Encode(buf, v); err != nil {
		bodyPool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// send writes an encoded body with its Content-Length in one write and
// recycles the buffer.
func send(w http.ResponseWriter, status int, body *bytes.Buffer) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(body.Len()))
	w.WriteHeader(status)
	w.Write(body.Bytes()) //nolint:errcheck // the client may be gone; nothing to do
	if body.Cap() <= maxPooledBody {
		bodyPool.Put(body)
	}
}

// WriteJSON sends v as the wire encoding with the given status. The
// body is encoded before the header goes out, so a document that does
// not encode (a non-finite float) is answered with 422 and an
// ErrorResponse naming the value instead of a truncated 200; the
// encoding error is returned for the caller to count. The shard router
// answers through it too.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	body, err := encode(v)
	if err != nil {
		status = http.StatusUnprocessableEntity
		body, _ = encode(wire.ErrorResponse{Error: err.Error()}) // a string always encodes
	}
	send(w, status, body)
	return err
}
