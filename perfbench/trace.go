package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/family"
	"repro/internal/memo"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/wire"
)

// requestIDHeader carries the traced run's request id to the
// benchmark-side middleware; the server itself ignores it.
const requestIDHeader = "X-Perfbench-Request"

// interval is a measured span: start and end.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// serverSpans records the handler span of every request with an id.
type serverSpans struct {
	mu sync.Mutex
	m  map[int]interval
}

func newServerSpans() *serverSpans { return &serverSpans{m: map[int]interval{}} }

// wrap is the benchmark-side middleware around (*server.Server).Handler().
func (sp *serverSpans) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if id, err := strconv.Atoi(r.Header.Get(requestIDHeader)); err == nil {
			sp.mu.Lock()
			sp.m[id] = interval{start, end}
			sp.mu.Unlock()
		}
	})
}

func (sp *serverSpans) get(id int) (interval, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	iv, ok := sp.m[id]
	return iv, ok
}

// replayed is the in-process replay of one request body: decode, solve
// and encode timed separately, with the solve's statistics.
type replayed struct {
	decode, solve, encode interval
	stats                 core.Stats
	ans                   answer
}

// inproc replays request bodies without HTTP, with the options the
// server builds for them: its default backend, one shared memo and
// planner, and its admission queue (which also sets the speculation
// level the server's workers use).
type inproc struct {
	queue   *batch.Queue
	cache   *memo.Cache
	planner *plan.Model
}

func newInproc() *inproc {
	return &inproc{queue: batch.NewQueue(0, -1), cache: memo.New(server.DefaultCacheBytes), planner: plan.NewModel()}
}

// options mirrors the server's request resolution under a default
// Config for the knobs the benchmark's requests set (eps and family).
func (p *inproc) options(sp wire.SolveSpec) (core.Options, error) {
	fam, err := family.Parse(sp.Family)
	if err != nil {
		return core.Options{}, err
	}
	e := sp.Eps
	if e == 0 {
		e = server.DefaultEps
	}
	var backend oracle.Kind // a default Config's backend
	return core.Options{Eps: e, Family: fam, Oracle: oracle.Selection{Backend: backend}, Cache: p.cache, Planner: p.planner}, nil
}

func (p *inproc) run(c *call) (*replayed, error) {
	var r replayed
	var task batch.Task
	r.decode.start = time.Now()
	if c.path == "/v1/resolve" {
		var req wire.ResolveRequest
		if err := wire.Unmarshal(c.body, &req); err != nil {
			return nil, err
		}
		r.decode.end = time.Now()
		opt, err := p.options(req.EffectiveSpec())
		if err != nil {
			return nil, err
		}
		prior := &core.Result{Input: req.Instance, Makespan: req.PriorMakespan, Options: opt}
		prior.Stats.FinalGuess = req.PriorGuess
		if len(req.PriorAssignment) > 0 {
			prior.Schedule = &sched.Schedule{Inst: req.Instance, Machine: req.PriorAssignment}
		}
		task = batch.Task{Options: opt, Prior: prior, Delta: &req.Delta}
	} else {
		var req wire.SolveRequest
		if err := wire.Unmarshal(c.body, &req); err != nil {
			return nil, err
		}
		r.decode.end = time.Now()
		opt, err := p.options(req.EffectiveSpec())
		if err != nil {
			return nil, err
		}
		task = batch.Task{Instance: req.Instance, Options: opt}
	}
	ctx, cancel := context.WithTimeout(context.Background(), server.DefaultMaxTimeout)
	defer cancel()
	r.solve.start = time.Now()
	out, admitted := p.queue.Do(ctx, task)
	r.solve.end = time.Now()
	if !admitted {
		return nil, errors.New("in-process queue full")
	}
	if out.Err != nil {
		return nil, out.Err
	}
	r.encode.start = time.Now()
	var doc any
	if task.Delta != nil {
		doc = wire.FromResolveResult(out.Result, false, r.solve.dur())
	} else {
		doc = wire.FromResult(out.Result, false, r.solve.dur())
	}
	if err := wire.Encode(io.Discard, doc); err != nil {
		return nil, err
	}
	r.encode.end = time.Now()
	r.stats = out.Result.Stats
	r.ans = answerOf(out.Result.Makespan, out.Result.Schedule.Machine)
	return &r, nil
}

// newReplay returns an in-process replay whose cache holds the prime
// calls' results, as the server's cache does after setup.
func newReplay(prime []*call) (*inproc, error) {
	p := newInproc()
	errs := make([]error, len(prime))
	parallel(len(prime), func(i int) {
		_, errs[i] = p.run(prime[i])
	})
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("in-process priming: %w", err)
	}
	return p, nil
}

// layerDef is one per-layer metric, in output order.
type layerDef struct{ name, unit string }

var layerDefs = []layerDef{
	{"http.transport_us", "us"}, {"server.front_us", "us"}, {"wire.decode_us", "us"}, {"wire.encode_us", "us"},
	{"wire.req_kb", "KiB"}, {"wire.resp_kb", "KiB"}, {"core.self_us", "us"}, {"round.scale_us", "us"},
	{"oracle.solve_us", "us"}, {"pattern.enumerate_us", "us"}, {"placer.place_us", "us"},
	{"classify.classify_us", "us"}, {"transform.transform_us", "us"},
	{"milp.nodes", "count"}, {"oracle.dp_states", "count"}, {"pattern.patterns", "count"},
	{"round.guesses", "count"}, {"round.failed_guesses", "count"},
	{"pipeline.runs", "count"}, {"pipeline.runs_per_guess", "ratio"},
	{"memo.hit_ratio", "ratio"}, {"memo.inflight_waits", "count"}, {"memo.evictions", "count"},
	{"memo.negative_entries", "count"}, {"memo.cost_mb", "MiB"},
	{"batch.wait_us", "us"}, {"server.coalesced_ratio", "ratio"},
	{"core.fallback_ratio", "ratio"}, {"core.answer_mismatches", "count"},
	{"runtime.alloc_kb", "KiB"}, {"runtime.gc_count", "count"},
	{"trace.overhead_pct", "%"}, {"trace.unexplained_pct", "%"},
}

// stageOf maps the pipeline's stage names to the per-layer metrics.
var stageOf = map[string]string{
	"Scale": "round.scale_us", "Classify": "classify.classify_us", "Transform": "transform.transform_us",
	"Lift": "transform.transform_us", "Enumerate": "pattern.enumerate_us", "SolveOracle": "oracle.solve_us",
	"Place": "placer.place_us",
}

// selfRow is one row of the time split. A measured row is the self
// time of spans of one request: http.transport is the client's span
// minus the server's handler span, server.front the handler span minus
// the server's solve window (elapsed_us), and the codec, core and stage
// rows come from the in-process replay of the same body right after it.
// A row within another is part of that row's time and is not added
// again. batch.wait is derived: the solve window minus the replay's
// solve, which leaves it whatever the two differ by besides queue and
// coalescing wait.
type selfRow struct {
	name    string
	within  string
	derived bool
}

// selfRows are the rows of the time split, outermost first. The
// top-level rows add up to the traced mean latency by construction;
// the measured ones alone leave batch.wait unexplained.
var selfRows = []selfRow{
	{name: "http.transport"}, {name: "server.front"},
	{name: "wire.decode", within: "server.front"}, {name: "wire.encode", within: "server.front"},
	{name: "batch.wait", derived: true}, {name: "core.self"}, {name: "round.scale"}, {name: "classify.classify"},
	{name: "transform.transform"}, {name: "pattern.enumerate"}, {name: "oracle.solve"}, {name: "placer.place"},
}

func (r selfRow) kind() string {
	switch {
	case r.derived:
		return "derived"
	case r.within != "":
		return "measured, within " + r.within
	}
	return "measured"
}

// summary is a traced run's record, written for the table.
type summary struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Facts        facts   `json:"facts"`
	Requests     int     `json:"requests"`
	TracedMeanUS float64 `json:"traced_mean_us"`
	// PlainMeanUS is the mean latency of the traced pass's untraced
	// requests, the baseline of trace.overhead_pct; BaseMeanUS that of
	// the untraced pass, whose clients do not replay.
	PlainMeanUS float64 `json:"plain_mean_us"`
	BaseMeanUS  float64 `json:"untraced_pass_mean_us"`
	// OverheadSEPct is the standard error of trace.overhead_pct.
	OverheadSEPct float64            `json:"overhead_se_pct"`
	SelfUS        map[string]float64 `json:"self_us"`
	Layers        map[string]float64 `json:"layers"`
	// MeasuredUS is the sum of the measured top-level rows; the rest
	// of the traced mean is unexplained.
	MeasuredUS float64 `json:"measured_us"`
	// Flags name each way the split failed its checks.
	Flags []string `json:"flags,omitempty"`
}

// runTraced is the traced run. An untraced pass gives the counts that
// tracing would disturb: the memo's, coalescing, fallbacks, allocations
// and collections. Then the same traffic runs on a fresh, identically
// set-up server. Each client replays every answered body in-process
// right after the answer, so a request and its replay see the same
// load and the same state of the machine, and traces half of them: the
// server-span middleware records their handler spans. The untraced
// requests of that pass are the overhead baseline.
func runTraced(out io.Writer, w workloadDef, seed int64, seconds float64, sc scale, dir string) (*result, error) {
	f := machineFacts()
	fmt.Fprintf(out, "# facts %s\n", f.JSON())
	e, err := setup(w, seed, seconds, sc, nil)
	if err != nil {
		return nil, err
	}
	base := measure(e, seconds)
	e.close()

	spans := newServerSpans()
	e, err = setup(w, seed, seconds, sc, spans)
	if err != nil {
		return nil, err
	}
	if e.replay, err = newReplay(e.cs.prime); err != nil {
		e.close()
		return nil, err
	}
	traced := measure(e, seconds)
	e.close()

	sum := layers(traced, base, spans)
	sum.Workload, sum.Seed, sum.Seconds, sum.Facts = w.name, seed, seconds, f

	attempted0, failed0 := base.report()
	attempted1, failed1 := traced.report()
	if err := writeTrace(dir, w.name, traced, spans, sum); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# %s seed %d: %d traced requests, mean %.1f us; untraced requests of the same pass %.1f us; untraced pass %.1f us\n",
		w.name, seed, sum.Requests, sum.TracedMeanUS, sum.PlainMeanUS, sum.BaseMeanUS)
	for _, row := range selfRows {
		fmt.Fprintf(out, "# self %-20s %12.1f us  %s\n", row.name, sum.SelfUS[row.name], row.kind())
	}
	fmt.Fprintf(out, "# self %-20s %12.1f us  (%.1f%% of the traced mean unexplained; tracing overhead %.1f%% ± %.1f%%)\n",
		"measured sum", sum.MeasuredUS, sum.Layers["trace.unexplained_pct"], sum.Layers["trace.overhead_pct"], sum.OverheadSEPct)
	for _, fl := range sum.Flags {
		fmt.Fprintf(out, "# flag: %s\n", fl)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, fl)
	}
	m := make(map[string]metric, len(layerDefs))
	for _, d := range layerDefs {
		m[d.name] = metric{sum.Layers[d.name], d.unit}
	}
	failed := failed0 + failed1
	return &result{Correct: failed == 0, Attempted: attempted0 + attempted1, Failed: failed, Metrics: m}, nil
}

// layers computes the per-layer metrics and self times of a traced run:
// means per request, the times over the traced requests of the traced
// pass and the counts over the untraced pass, unless noted.
func layers(traced, base *phase, spans *serverSpans) *summary {
	L := map[string]float64{}
	var n, guesses, runs, mismatches, lat, lat2, plain, plainLat, plainLat2 float64
	for _, s := range traced.ok() {
		r := s.rep
		if r != nil && r.ans != s.ans {
			mismatches++
		}
		if !s.traced {
			l := us(s.end.Sub(s.start))
			plain, plainLat, plainLat2 = plain+1, plainLat+l, plainLat2+l*l
			continue
		}
		iv, ok := spans.get(s.id)
		if r == nil || !ok {
			continue
		}
		n++
		lat += us(s.end.Sub(s.start))
		lat2 += us(s.end.Sub(s.start)) * us(s.end.Sub(s.start))
		elapsed := float64(s.elapsedUS)
		L["http.transport_us"] += us(s.end.Sub(s.start)) - us(iv.dur())
		L["server.front_us"] += us(iv.dur()) - elapsed
		L["wire.decode_us"] += us(r.decode.dur())
		L["wire.encode_us"] += us(r.encode.dur())
		L["wire.req_kb"] += float64(s.reqBytes) / 1024
		L["wire.resp_kb"] += float64(s.respBytes) / 1024
		L["batch.wait_us"] += elapsed - us(r.solve.dur())
		var staged float64
		for stage, d := range r.stats.StageTime {
			L[stageOf[stage]] += us(d)
			staged += us(d)
		}
		L["core.self_us"] += us(r.solve.dur()) - staged
		st := r.stats
		L["milp.nodes"] += float64(st.MILPNodes)
		L["oracle.dp_states"] += float64(st.DPStates)
		L["pattern.patterns"] += float64(st.Patterns)
		L["round.guesses"] += float64(st.Guesses)
		L["round.failed_guesses"] += float64(st.FailedGuesses)
		L["pipeline.runs"] += float64(st.PipelineRuns)
		guesses += float64(st.Guesses)
		runs += float64(st.PipelineRuns)
	}
	if n > 0 {
		for k := range L {
			L[k] /= n
		}
		lat /= n
	}
	if guesses > 0 {
		L["pipeline.runs_per_guess"] = runs / guesses
	}
	L["core.answer_mismatches"] = mismatches

	var baseLat, coalesced, fallback float64
	done := base.ok()
	for _, s := range done {
		baseLat += us(s.end.Sub(s.start))
		if s.coalesced {
			coalesced++
		}
		if s.fallback {
			fallback++
		}
	}
	c0, c1 := base.cache0, base.cache1
	if lookups := float64(c1.Hits - c0.Hits + c1.Misses - c0.Misses); lookups > 0 {
		L["memo.hit_ratio"] = float64(c1.Hits-c0.Hits) / lookups
	}
	if b := float64(len(done)); b > 0 {
		baseLat /= b
		L["memo.inflight_waits"] = float64(c1.Waits-c0.Waits) / b
		L["memo.evictions"] = float64(c1.Evictions-c0.Evictions) / b
		L["server.coalesced_ratio"] = coalesced / b
		L["core.fallback_ratio"] = fallback / b
		L["runtime.alloc_kb"] = float64(base.allocs) / 1024 / b
		L["runtime.gc_count"] = float64(base.gcs) / b
	}
	L["memo.negative_entries"] = float64(c1.Negative)
	L["memo.cost_mb"] = float64(c1.Cost) / (1 << 20)
	var overheadSE float64
	if n > 1 && plain > 1 && plainLat > 0 {
		plainLat /= plain
		L["trace.overhead_pct"] = 100 * (lat - plainLat) / plainLat
		// The two halves hold different requests, so the overhead is
		// known only to within the standard error of the difference of
		// their means.
		varT := (lat2/n - lat*lat) * n / (n - 1)
		varU := (plainLat2/plain - plainLat*plainLat) * plain / (plain - 1)
		overheadSE = 100 * math.Sqrt(varT/n+varU/plain) / plainLat
	}

	self := map[string]float64{}
	for _, row := range selfRows {
		self[row.name] = L[row.name+"_us"]
	}
	sum := &summary{Requests: int(n), TracedMeanUS: lat, PlainMeanUS: plainLat, BaseMeanUS: baseLat, OverheadSEPct: overheadSE, SelfUS: self, Layers: L}
	sum.check()
	return sum
}

// check sums the measured top-level rows, reports the rest of the
// traced mean as the unexplained share, and flags the split where it
// fails: where the unexplained share, a negative row, or the rows
// within a row beyond that row's own time, exceed the tracing overhead.
// A replay that solves slower or faster than the server did shows as
// unexplained time; a stage counted twice as a negative core.self.
func (s *summary) check() {
	within := map[string]float64{}
	for _, row := range selfRows {
		switch {
		case row.within != "":
			within[row.within] += s.SelfUS[row.name]
		case !row.derived:
			s.MeasuredUS += s.SelfUS[row.name]
		}
	}
	if s.TracedMeanUS <= 0 {
		return
	}
	pct := func(v float64) float64 { return 100 * v / s.TracedMeanUS }
	unexplained := pct(s.TracedMeanUS - s.MeasuredUS)
	s.Layers["trace.unexplained_pct"] = unexplained
	tol := math.Abs(s.Layers["trace.overhead_pct"])
	if math.Abs(unexplained) > tol {
		s.Flags = append(s.Flags, fmt.Sprintf("the measured rows leave %.1f%% of the traced mean unexplained, more than the tracing overhead of %.1f%%", unexplained, tol))
	}
	for _, row := range selfRows {
		if v := pct(s.SelfUS[row.name]); row.within == "" && v < -tol {
			s.Flags = append(s.Flags, fmt.Sprintf("%s is %.1f%% of the traced mean, below minus the tracing overhead of %.1f%%", row.name, v, tol))
		}
	}
	for _, parent := range sortedKeys(within) {
		if v := pct(s.SelfUS[parent] - within[parent]); v < -tol {
			s.Flags = append(s.Flags, fmt.Sprintf("the rows within %s exceed it by %.1f%% of the traced mean, more than the tracing overhead of %.1f%%", parent, -v, tol))
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanRec is one written span, in microseconds from the first request
// of the traced pass. Start is -1 where only the duration is known: the
// server's solve window comes from the response's elapsed_us, and stage
// times are per-solve totals.
type spanRec struct {
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
}

// writeTrace writes the traced run's spans (one JSON object per line,
// shared request ids) and its summary into dir.
func writeTrace(dir, name string, traced *phase, spans *serverSpans, sum *summary) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	at := func(t time.Time) float64 { return us(t.Sub(traced.start)) }
	for _, s := range traced.ok() {
		r := s.rep
		iv, ok := spans.get(s.id)
		if r == nil || !ok {
			continue
		}
		recs := []spanRec{
			{s.id, "http", "", at(s.start), us(s.end.Sub(s.start))},
			{s.id, "server", "http", at(iv.start), us(iv.dur())},
			{s.id, "solve", "server", -1, float64(s.elapsedUS)},
			{s.id, "replay", "", at(r.decode.start), us(r.encode.end.Sub(r.decode.start))},
			{s.id, "wire.decode", "replay", at(r.decode.start), us(r.decode.dur())},
			{s.id, "core", "replay", at(r.solve.start), us(r.solve.dur())},
			{s.id, "wire.encode", "replay", at(r.encode.start), us(r.encode.dur())},
		}
		for _, stage := range sortedKeys(r.stats.StageTime) {
			recs = append(recs, spanRec{s.id, "stage." + stage, "core", -1, us(r.stats.StageTime[stage])})
		}
		for _, rec := range recs {
			enc.Encode(rec) //nolint:errcheck // bytes.Buffer
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "spans-"+name+".jsonl"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers-"+name+".json"), append(b, '\n'), 0o644)
}
