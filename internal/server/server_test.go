package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/wire"
	"repro/internal/workload"
)

// newTestServer starts the service under httptest with a small worker
// pool and a shared cache.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func testInstance(t *testing.T) *sched.Instance {
	t.Helper()
	in := sched.NewInstance(4)
	sizes := []float64{0.9, 0.85, 0.8, 0.7, 0.6, 0.55, 0.5, 0.4, 0.3, 0.25, 0.2, 0.1}
	for i, size := range sizes {
		in.AddJob(size, i%6)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

// postJSON posts body and returns the status and decoded JSON document.
func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, doc
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, doc
}

func TestSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	in := testInstance(t)
	want, err := core.Solve(in, core.Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": in, "eps": 0.5})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %v", status, doc)
	}
	if got := doc["makespan"].(float64); got != want.Makespan {
		t.Fatalf("makespan %.17g, want %.17g", got, want.Makespan)
	}
	if got := doc["lower_bound"].(float64); got != want.LowerBound {
		t.Fatalf("lower_bound %.17g, want %.17g", got, want.LowerBound)
	}
	asg := doc["assignment"].([]any)
	if len(asg) != len(in.Jobs) {
		t.Fatalf("assignment length %d, want %d", len(asg), len(in.Jobs))
	}
	for i, m := range want.Schedule.Machine {
		if int(asg[i].(float64)) != m {
			t.Fatalf("assignment[%d] = %v, want %d", i, asg[i], m)
		}
	}
	if _, ok := doc["elapsed_us"]; !ok {
		t.Fatalf("response missing elapsed_us: %v", doc)
	}
}

// TestSolveWarmCacheIdentical replays one request and checks the second
// response is bit-identical and served from the shared cache.
func TestSolveWarmCacheIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := map[string]any{"instance": testInstance(t), "eps": 0.4}
	status, cold := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("cold status %d: %v", status, cold)
	}
	status, warm := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("warm status %d: %v", status, warm)
	}
	if cold["makespan"] != warm["makespan"] || !reflect.DeepEqual(cold["assignment"], warm["assignment"]) {
		t.Fatalf("warm response differs from cold:\n%v\nvs\n%v", warm, cold)
	}
	if hits := s.Cache().Stats().Hits; hits == 0 {
		t.Fatalf("warm replay produced no shared-cache hits")
	}
	if warm["cache_misses"].(float64) != 0 {
		t.Fatalf("warm solve reported %v cache misses, want 0", warm["cache_misses"])
	}
}

func TestSolveBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := testInstance(t)
	cases := []struct {
		name string
		body string
		want string // a substring of the error, when set
	}{
		{"malformed JSON", `{"instance": `, ""},
		{"unknown field", `{"instanec": {}}`, ""},
		{"missing instance", `{"eps": 0.5}`, ""},
		{"bad eps", mustJSON(map[string]any{"instance": in, "eps": 1.5}), ""},
		{"bad backend", mustJSON(map[string]any{"instance": in, "backend": "gurobi"}), ""},
		// The retired portfolio backend is unknown, not an alias.
		{"portfolio backend", mustJSON(map[string]any{"instance": in, "backend": "portfolio"}), "want bnb or cfgdp"},
		{"portfolio backend in spec", mustJSON(map[string]any{"instance": in, "spec": map[string]any{"backend": "portfolio"}}), "want bnb or cfgdp"},
		{"negative timeout", mustJSON(map[string]any{"instance": in, "timeout_ms": -1}), ""},
		{"invalid instance", `{"instance": {"machines": 0, "jobs": []}}`, ""},
		// A misspelled instance field ("speed") must not decode as an
		// identical-machines instance with the speeds silently dropped.
		{"unknown instance field", `{"instance":{"machines":3,"speed":[1,2,4],"jobs":[{"id":0,"size":1,"bag":0}]},"family":"related"}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if !strings.Contains(string(raw), tc.want) {
				t.Fatalf("error %q does not contain %q", raw, tc.want)
			}
		})
	}

	// Wrong method is routed by the mux itself.
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve status %d, want 405", resp.StatusCode)
	}
}

// TestSolveNonFiniteAnswer: a valid instance whose makespan overflows to
// +Inf cannot be encoded. The body is encoded before the header goes
// out, so the client gets 422 with an error document naming the value
// (not a 200 with an empty body), and the solve counts as an error.
func TestSolveNonFiniteAnswer(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"huge jobs":  `{"instance":{"machines":1,"jobs":[{"id":0,"size":1e308,"bag":0},{"id":1,"size":1e308,"bag":1}]}}`,
		"tiny speed": `{"instance":{"machines":1,"speeds":[5e-324],"jobs":[{"id":0,"size":1,"bag":0}]},"family":"related"}`,
	} {
		t.Run(name, func(t *testing.T) {
			before := s.solveErrors.Load()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("status %d, body %q; want 422", resp.StatusCode, raw)
			}
			if resp.ContentLength != int64(len(raw)) {
				t.Fatalf("Content-Length %d for a %d-byte body", resp.ContentLength, len(raw))
			}
			var doc wire.ErrorResponse
			if err := wire.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("error body %q does not decode: %v", raw, err)
			}
			if !strings.Contains(doc.Error, "+Inf") {
				t.Fatalf("error %q does not name the non-finite value", doc.Error)
			}
			if got := s.solveErrors.Load() - before; got != 1 {
				t.Fatalf("counted %d solve errors, want 1", got)
			}
		})
	}
}

// TestSolveContentLength: a solve response is sent in one piece with its
// Content-Length, also when it is larger than the 2 KiB net/http
// buffers before it falls back to chunked encoding, and its bytes are
// the reference encoding of the decoded document.
func TestSolveContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := workload.MustGenerate(workload.Spec{Family: workload.Bimodal, Machines: 4, Jobs: 400, Bags: 8, Seed: 3})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(mustJSON(map[string]any{"instance": in, "eps": 0.5})))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(raw)) || len(raw) <= 2048 {
		t.Fatalf("status %d, Content-Length %d for a %d-byte body", resp.StatusCode, resp.ContentLength, len(raw))
	}
	var res wire.SolveResult
	if err := wire.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	enc := json.NewEncoder(&ref)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, ref.Bytes()) {
		t.Fatalf("response\n%s\nreference encoding\n%s", raw, ref.Bytes())
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestSolveDeadline: a 1ms budget on an instance that takes tens of
// milliseconds cold must propagate down the context plumbing and come
// back as 504. The instance must be well past Go's ~10ms async
// preemption threshold: on a GOMAXPROCS=1 machine the deadline timer
// cannot fire while the solver goroutine is CPU-bound, so a too-fast
// solve would nondeterministically beat its own deadline.
func TestSolveDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	in := workload.MustGenerate(workload.Spec{Family: workload.Bimodal, Machines: 24, Jobs: 3000, Bags: 20, Seed: 7})
	status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{
		"instance": in, "eps": 0.02, "timeout_ms": 1, "no_cache": true,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%v), want 504", status, doc)
	}
	if s.timeouts.Load() == 0 {
		t.Fatalf("timeout not counted")
	}
}

// TestSolveInfeasible: a well-formed instance that cannot be scheduled
// (a bag with more jobs than machines) is a 422, not a 400 or 500.
func TestSolveInfeasible(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := sched.NewInstance(2)
	for i := 0; i < 3; i++ {
		in.AddJob(0.5, 0) // three jobs of one bag on two machines
	}
	status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": in})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%v), want 422", status, doc)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	in := testInstance(t)
	in2 := sched.NewInstance(3)
	for i, size := range []float64{0.9, 0.8, 0.7, 0.5, 0.4, 0.2} {
		in2.AddJob(size, i%3)
	}
	want1, err := core.Solve(in, core.Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want2, err := core.Solve(in2, core.Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	// The duplicate of in exercises the shared cache inside one batch.
	status, doc := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"instances": []any{in, in2, in},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, doc)
	}
	outs := doc["outcomes"].([]any)
	if len(outs) != 3 {
		t.Fatalf("%d outcomes, want 3", len(outs))
	}
	wantMk := []float64{want1.Makespan, want2.Makespan, want1.Makespan}
	for i, o := range outs {
		om := o.(map[string]any)
		if errStr, ok := om["error"]; ok {
			t.Fatalf("outcome %d failed: %v", i, errStr)
		}
		if got := om["makespan"].(float64); got != wantMk[i] {
			t.Fatalf("outcome %d makespan %.17g, want %.17g", i, got, wantMk[i])
		}
	}

	status, _ = postJSON(t, ts.URL+"/v1/batch", map[string]any{"instances": []any{}})
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", status)
	}
	status, doc = postJSON(t, ts.URL+"/v1/batch", map[string]any{"instances": []any{in}, "backend": "portfolio"})
	if errStr, _ := doc["error"].(string); status != http.StatusBadRequest || !strings.Contains(errStr, "want bnb or cfgdp") {
		t.Fatalf("portfolio batch: status %d (%v), want 400 naming the backends", status, doc)
	}
}

// TestBatchWiderThanAdmission: a single batch larger than the whole
// admission window (workers+depth) on an otherwise idle server must
// complete every item — the handler's bounded fan-out queues excess
// items inside the request instead of racing them all into 'queue
// full' rejections.
func TestBatchWiderThanAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 0})
	instances := make([]any, 6)
	for i := range instances {
		in := sched.NewInstance(3)
		for j, size := range []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4} {
			in.AddJob(size+float64(i)/100, j%3)
		}
		instances[i] = in
	}
	status, doc := postJSON(t, ts.URL+"/v1/batch", map[string]any{"instances": instances})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, doc)
	}
	for i, o := range doc["outcomes"].([]any) {
		om := o.(map[string]any)
		if errStr, ok := om["error"]; ok {
			t.Fatalf("outcome %d failed on an idle server: %v", i, errStr)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	status, doc := getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK || doc["status"] != "ok" {
		t.Fatalf("healthz = %d %v", status, doc)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	in := testInstance(t)
	for i := 0; i < 3; i++ {
		if status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": in}); status != http.StatusOK {
			t.Fatalf("solve %d: %d %v", i, status, doc)
		}
	}
	status, doc := getJSON(t, ts.URL+"/v1/stats?window=2")
	if status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	srv := doc["server"].(map[string]any)
	if got := srv["solves"].(float64); got != 3 {
		t.Fatalf("solves = %v, want 3", got)
	}
	cache := doc["cache"].(map[string]any)
	if cache["hits"].(float64) == 0 || cache["misses"].(float64) == 0 {
		t.Fatalf("cache saw no traffic: %v", cache)
	}
	lat := doc["latency"].(map[string]any)
	if lat["count"].(float64) != 3 {
		t.Fatalf("latency count = %v, want 3", lat["count"])
	}
	win := doc["window"].(map[string]any)
	if win["count"].(float64) != 2 {
		t.Fatalf("window count = %v, want 2", win["count"])
	}

	if status, _ := getJSON(t, ts.URL+"/v1/stats?window=bogus"); status != http.StatusBadRequest {
		t.Fatalf("bogus window status %d, want 400", status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": testInstance(t)}); status != http.StatusOK {
		t.Fatalf("solve: %d %v", status, doc)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"bagsched_requests_total",
		"bagsched_solves_total 1",
		"bagsched_cache_misses_total",
		"bagsched_queue_running 0",
		"bagsched_solve_latency_p50_microseconds",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestAdmissionControl fills the one worker slot and zero-depth queue
// with a blocked solve, then checks the next request bounces with 503.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 0})
	release := make(chan struct{})
	defer close(release)
	blockedIn := testInstance(t)
	// Progress is a branch-and-bound hook, so the blocker pins bnb.
	opt := core.Options{Eps: 0.5, Oracle: oracle.Selection{Backend: oracle.KindBnB}}
	opt.MILP.Progress = func(nodes, pivots int) error {
		<-release
		return nil
	}
	go s.queue.Do(context.Background(), batch.Task{Instance: blockedIn, Options: opt})
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.Running() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}

	status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": testInstance(t)})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%v), want 503", status, doc)
	}
	if s.queue.Rejected() == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestSharedCacheHammer is the serving-layer race test: 32 concurrent
// clients replay the committed fixture corpus against one server (one
// shared cache), and every response must be bit-identical to the same
// request solved with the shared cache bypassed. Run under -race this
// doubles as the data-race check on the cache and queue.
func TestSharedCacheHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	all, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil || len(all) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	var files []string
	for _, f := range all {
		// Skip churn traces (base+deltas documents, not plain instances).
		if strings.HasPrefix(filepath.Base(f), "churn_") {
			continue
		}
		files = append(files, f)
	}
	type fixture struct {
		name string
		in   *sched.Instance
		fam  string
		want float64
	}
	var fixtures []fixture
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var in sched.Instance
		if err := json.Unmarshal(raw, &in); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		// Speed fixtures must be solved as the related family; the bag
		// default rejects them.
		fam := "bags"
		if !in.Uniform() {
			fam = "related"
		}
		// The no-shared-cache reference, served by the same process.
		status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": &in, "family": fam, "no_cache": true})
		if status != http.StatusOK {
			t.Fatalf("%s baseline: %d %v", path, status, doc)
		}
		fixtures = append(fixtures, fixture{filepath.Base(path), &in, fam, doc["makespan"].(float64)})
	}

	const clients = 32
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, f := range fixtures {
				// Stagger the corpus so clients overlap on different
				// fixtures at different times.
				f = fixtures[(i+c)%len(fixtures)]
				status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": f.in, "family": f.fam})
				if status == http.StatusServiceUnavailable {
					continue // admission shedding is legal under the hammer
				}
				if status != http.StatusOK {
					t.Errorf("client %d %s: status %d (%v)", c, f.name, status, doc)
					return
				}
				if got := doc["makespan"].(float64); got != f.want {
					t.Errorf("client %d %s: makespan %.17g, want %.17g (cached vs uncached must be bit-identical)",
						c, f.name, got, f.want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestIdenticalConcurrentSolves: identical requests sent at once each
// run their own solve, and the shared cache's in-flight claim still
// runs every guess once among them. All of them answer alike, and the
// cache records exactly the misses one solo request leaves on a fresh
// server. Workers >= GOMAXPROCS saturates the queue, which turns guess
// speculation off, so every request consumes the same guess sequence.
func TestIdenticalConcurrentSolves(t *testing.T) {
	const k = 8
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "bimodal_m6_n24.json"))
	if err != nil {
		t.Fatal(err)
	}
	body := mustJSON(map[string]any{"instance": json.RawMessage(raw), "eps": 0.33})
	solve := func(url string) (*wire.SolveResult, error) {
		resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		doc, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, doc)
		}
		var res wire.SolveResult
		return &res, wire.Unmarshal(doc, &res)
	}
	cfg := Config{Workers: max(2, runtime.GOMAXPROCS(0)), QueueDepth: k}

	solo, ts := newTestServer(t, cfg)
	want, err := solve(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	misses := solo.Cache().Stats().Misses
	if misses < 2 {
		t.Fatalf("a solo solve misses the cache %d times; the fixture must miss at least twice", misses)
	}

	s, ts := newTestServer(t, cfg)
	got := make([]*wire.SolveResult, k)
	errs := make([]error, k)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = solve(ts.URL)
		}()
	}
	close(start)
	wg.Wait()
	for i, res := range got {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if res.Makespan != want.Makespan || !slices.Equal(res.Assignment, want.Assignment) {
			t.Fatalf("request %d answered makespan %.17g, assignment %v; a solo request %.17g, %v",
				i, res.Makespan, res.Assignment, want.Makespan, want.Assignment)
		}
	}
	if got := s.Cache().Stats().Misses; got != misses {
		t.Fatalf("%d identical concurrent requests missed the cache %d times; one solo request misses it %d times", k, got, misses)
	}
}

func TestLatencyRing(t *testing.T) {
	l := NewLatencyRing(4)
	if sum := l.Percentiles(0); sum.Count != 0 {
		t.Fatalf("empty ring summary %+v", sum)
	}
	for _, ms := range []int64{10, 20, 30, 40, 50, 60} { // wraps: keeps 30..60
		l.Record(time.Duration(ms) * time.Millisecond)
	}
	all := l.Percentiles(0)
	if all.Count != 4 || all.Total != 6 {
		t.Fatalf("summary %+v, want count 4 of total 6", all)
	}
	if all.Max != 60000 || all.P50 != 40000 {
		t.Fatalf("summary %+v, want max 60000us p50 40000us", all)
	}
	last2 := l.Percentiles(2)
	if last2.Count != 2 || last2.P50 != 50000 || last2.Max != 60000 {
		t.Fatalf("window summary %+v, want the last two samples", last2)
	}
}

func TestStatsPayloadShape(t *testing.T) {
	s := New(Config{Workers: 2})
	payload := s.statsPayload(8)
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"uptime_s", "server", "cache", "latency", "window"} {
		if !bytes.Contains(raw, []byte(fmt.Sprintf("%q", key))) {
			t.Errorf("stats payload missing %q: %s", key, raw)
		}
	}
}

// relatedTestInstance is a small uniformly-related instance (singleton
// bags, two speed classes).
func relatedTestInstance(t *testing.T) *sched.Instance {
	t.Helper()
	in := sched.NewRelatedInstance([]float64{1, 1, 2, 4})
	sizes := []float64{2.5, 1.8, 1.1, 0.9, 0.6, 0.4, 0.3, 0.2}
	for i, size := range sizes {
		in.AddJob(size, i)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestFamilyField pins the per-request problem-family selection: a
// related instance solves under family=related, is rejected by the bag
// default (422: well-formed body, unsolvable as asked), an unknown
// family is a 400 client error, and the per-family counters in
// /v1/stats attribute the solve to the right family.
func TestFamilyField(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	rel := relatedTestInstance(t)

	status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": rel, "family": "related"})
	if status != http.StatusOK {
		t.Fatalf("family=related: status %d (%v)", status, doc)
	}
	if doc["makespan"].(float64) <= 0 {
		t.Fatalf("family=related: missing makespan in %v", doc)
	}

	status, doc = postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": rel})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("bag default on a speed instance: status %d (%v), want 422", status, doc)
	}

	status, doc = postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": rel, "family": "nope"})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown family: status %d (%v), want 400", status, doc)
	}

	// A bags solve for contrast, then check the per-family attribution.
	status, doc = postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": testInstance(t)})
	if status != http.StatusOK {
		t.Fatalf("bags solve: status %d (%v)", status, doc)
	}

	status, stats := getJSON(t, ts.URL+"/v1/stats?window=8")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	fams, ok := stats["families"].(map[string]any)
	if !ok {
		t.Fatalf("stats payload has no families section: %v", stats)
	}
	for name, want := range map[string]float64{"related": 1, "bags": 1, "identical": 0} {
		fs, ok := fams[name].(map[string]any)
		if !ok {
			t.Fatalf("families section missing %q: %v", name, fams)
		}
		if got := fs["solves"].(float64); got != want {
			t.Errorf("families[%q].solves = %v, want %v", name, got, want)
		}
		if _, ok := fs["latency"]; !ok {
			t.Errorf("families[%q] has no latency digest", name)
		}
		if _, ok := fs["window"]; !ok {
			t.Errorf("families[%q] has no window digest (requested window=8)", name)
		}
	}

	// The family must also separate metrics exposure.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`bagsched_family_solves_total{family="related"} 1`)) {
		t.Errorf("metrics missing the related family counter:\n%s", raw)
	}
}

// TestResolveEndpoint: solve, feed the response's prior facts into
// /v1/resolve, and check the incremental answer is bit-identical to a
// from-scratch solve of the post-delta instance — and that the resolve
// shows up in the stats counters.
func TestResolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	in := testInstance(t)

	status, prior := postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": in, "eps": 0.5})
	if status != http.StatusOK {
		t.Fatalf("prior solve: status %d (%v)", status, prior)
	}
	priorGuess, _ := prior["final_guess"].(float64) // omitted when 0

	delta := sched.Delta{Resize: []sched.Resize{{ID: in.Jobs[0].ID, Size: 0.95}}}
	status, doc := postJSON(t, ts.URL+"/v1/resolve", map[string]any{
		"instance":       in,
		"delta":          delta,
		"prior_makespan": prior["makespan"],
		"prior_guess":    priorGuess,
		"eps":            0.5,
	})
	if status != http.StatusOK {
		t.Fatalf("resolve: status %d (%v)", status, doc)
	}

	post, _, err := delta.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Solve(post, core.Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := doc["makespan"].(float64); got != want.Makespan {
		t.Fatalf("resolve makespan %.17g, want from-scratch %.17g", got, want.Makespan)
	}
	asg := doc["assignment"].([]any)
	for i, m := range want.Schedule.Machine {
		if int(asg[i].(float64)) != m {
			t.Fatalf("assignment[%d] = %v, want %d", i, asg[i], m)
		}
	}

	status, stats := getJSON(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	server := stats["server"].(map[string]any)
	if server["resolves"].(float64) != 1 {
		t.Fatalf("stats report %v resolves, want 1", server["resolves"])
	}
}

// TestResolveRepairEndpoint: with "repair" and a prior assignment, a
// small resize is absorbed by the placement repair (no search) and the
// response carries the repair counters.
func TestResolveRepairEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	// The repair instance from the core tests: bag-LPT is suboptimal, so
	// the solve does not short-circuit on a provably optimal fallback.
	in := sched.NewInstance(2)
	in.AddJob(3, 0)
	in.AddJob(3, 1)
	in.AddJob(2, 2)
	in.AddJob(2, 3)
	in.AddJob(2, 4)

	status, prior := postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": in, "eps": 0.33})
	if status != http.StatusOK {
		t.Fatalf("prior solve: status %d (%v)", status, prior)
	}
	priorGuess, _ := prior["final_guess"].(float64)

	delta := sched.Delta{Resize: []sched.Resize{{ID: in.Jobs[4].ID, Size: 2.1}}}
	status, doc := postJSON(t, ts.URL+"/v1/resolve", map[string]any{
		"instance":         in,
		"delta":            delta,
		"prior_makespan":   prior["makespan"],
		"prior_guess":      priorGuess,
		"prior_assignment": prior["assignment"],
		"repair":           true,
		"eps":              0.33,
	})
	if status != http.StatusOK {
		t.Fatalf("resolve: status %d (%v)", status, doc)
	}
	if doc["repaired"] != true {
		t.Fatalf("repair fast path did not engage: %v", doc)
	}
	if doc["guesses"].(float64) != 0 {
		t.Fatalf("repaired resolve reports %v guesses, want 0", doc["guesses"])
	}
	if doc["repair_kept"].(float64) != 4 || doc["repair_moved"].(float64) != 1 {
		t.Fatalf("repair counters kept=%v moved=%v, want 4/1", doc["repair_kept"], doc["repair_moved"])
	}
	if got := s.repairs.Load(); got != 1 {
		t.Fatalf("server counted %d repairs, want 1", got)
	}
}

// TestResolveBadRequests covers the resolve-specific 400s (the shared
// knob validation is covered by TestSolveBadRequests) and the 422 of a
// well-formed but inapplicable delta.
func TestResolveBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := testInstance(t)
	base := func() map[string]any {
		return map[string]any{"instance": in, "delta": sched.Delta{}, "prior_makespan": 1.0}
	}
	cases := []struct {
		name   string
		mutate func(map[string]any)
		status int
		want   string // a substring of the error, when set
	}{
		{"negative prior makespan", func(m map[string]any) { m["prior_makespan"] = -1.0 }, http.StatusBadRequest, ""},
		{"assignment length mismatch", func(m map[string]any) { m["prior_assignment"] = []int{0} }, http.StatusBadRequest, ""},
		{"repair without assignment", func(m map[string]any) { m["repair"] = true }, http.StatusBadRequest, ""},
		{"unknown field", func(m map[string]any) { m["nope"] = 1 }, http.StatusBadRequest, ""},
		{"portfolio backend", func(m map[string]any) { m["backend"] = "portfolio" }, http.StatusBadRequest, "want bnb or cfgdp"},
		{"inapplicable delta", func(m map[string]any) {
			m["delta"] = sched.Delta{Remove: []sched.JobID{9999}}
		}, http.StatusUnprocessableEntity, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := base()
			tc.mutate(body)
			status, doc := postJSON(t, ts.URL+"/v1/resolve", body)
			if status != tc.status {
				t.Fatalf("status %d (%v), want %d", status, doc, tc.status)
			}
			if errStr, _ := doc["error"].(string); !strings.Contains(errStr, tc.want) {
				t.Fatalf("error %q does not contain %q", errStr, tc.want)
			}
		})
	}
}
