package shard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// Policy selects how the router picks a replica for a request.
type Policy string

const (
	// PolicyHash (default) routes by consistent hash of the solve
	// signature, so signature-equivalent requests always land on the
	// replica that already holds the memo entry.
	PolicyHash Policy = "hash"
	// PolicyRandom routes uniformly at random. Kept for the
	// routed-vs-random ablation in the load driver — it is the baseline
	// that shows what the hash ring buys.
	PolicyRandom Policy = "random"
)

// ParsePolicy parses a CLI policy name; the empty string selects
// PolicyHash.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", PolicyHash:
		return PolicyHash, nil
	case PolicyRandom:
		return PolicyRandom, nil
	}
	return "", fmt.Errorf("shard: unknown policy %q (want %q or %q)", s, PolicyHash, PolicyRandom)
}

// Defaults for Config zero values.
const (
	DefaultHealthInterval = time.Second
	DefaultRetryBackoff   = 25 * time.Millisecond
	DefaultMaxBody        = 8 << 20
)

// Config configures a Router; zero values select the defaults above.
type Config struct {
	// Replicas are the base URLs of the fronted solve replicas
	// (required, at least one).
	Replicas []string
	// VNodes is the virtual-node count per replica (<= 0 selects
	// DefaultVNodes).
	VNodes int
	// Policy selects replica placement (empty selects PolicyHash).
	Policy Policy
	// Eps mirrors the replicas' default accuracy for route-key
	// computation (0 selects server.DefaultEps). It never changes what a
	// replica computes — only where a knob-less request routes.
	Eps float64
	// MaxBodyBytes bounds request bodies (<= 0 selects DefaultMaxBody).
	MaxBodyBytes int64
	// HealthInterval is the background health-check period (0 selects
	// DefaultHealthInterval; < 0 disables the background loop — health
	// is then tracked passively from forward outcomes only).
	HealthInterval time.Duration
	// RetryBackoff is the base delay before each fallback attempt,
	// growing linearly per attempt (0 selects DefaultRetryBackoff; < 0
	// disables the delay).
	RetryBackoff time.Duration
	// Client performs the forwards (nil selects a fresh http.Client).
	Client *http.Client
	// Seed seeds the random policy so ablation runs are reproducible.
	Seed int64
}

// Router fronts N solve replicas behind the single-server HTTP surface:
// it decodes each request with the shared wire codec, hashes it to a
// replica, forwards, and falls back to the next distinct replica of the
// ring sequence (with backoff) when a replica is down or saturated.
type Router struct {
	cfg    Config
	ring   *Ring
	client *http.Client
	lat    *server.LatencyRing
	start  time.Time

	healthy []atomic.Bool
	perRep  []atomic.Int64 // successful forwards per replica

	requests        atomic.Int64 // requests accepted into a forwarding handler
	routed          atomic.Int64 // successfully forwarded solve/batch groups
	fallbackRetries atomic.Int64 // forwards retried on a fallback replica
	routeErrors     atomic.Int64 // requests rejected before any forward (bad body/key)

	rngMu sync.Mutex
	rng   *rand.Rand

	started  atomic.Bool
	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// New validates cfg and builds the router. Start begins health checks;
// Close stops them.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("shard: no replicas configured")
	}
	policy, err := ParsePolicy(string(cfg.Policy))
	if err != nil {
		return nil, err
	}
	cfg.Policy = policy
	if cfg.Eps == 0 {
		cfg.Eps = server.DefaultEps
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBody
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	ring, err := NewRing(len(cfg.Replicas), cfg.VNodes)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	rt := &Router{
		cfg:     cfg,
		ring:    ring,
		client:  client,
		lat:     server.NewLatencyRing(1 << 14),
		start:   time.Now(),
		healthy: make([]atomic.Bool, len(cfg.Replicas)),
		perRep:  make([]atomic.Int64, len(cfg.Replicas)),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	// Replicas start healthy: the first forward or health tick corrects
	// the optimism, and a cold router must not reject traffic.
	for i := range rt.healthy {
		rt.healthy[i].Store(true)
	}
	return rt, nil
}

// Start launches the background health-check loop (a no-op when the
// interval is negative). Call Close to stop it.
func (rt *Router) Start() {
	rt.started.Store(true)
	if rt.cfg.HealthInterval < 0 {
		close(rt.done)
		return
	}
	go func() {
		defer close(rt.done)
		ticker := time.NewTicker(rt.cfg.HealthInterval)
		defer ticker.Stop()
		rt.checkAll()
		for {
			select {
			case <-rt.stopCh:
				return
			case <-ticker.C:
				rt.checkAll()
			}
		}
	}()
}

// Close stops the health-check loop. It does not wait for in-flight
// forwards, and is safe to call whether or not Start ever ran.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stopCh) })
	if rt.started.Load() {
		<-rt.done
	}
}

// checkAll probes every replica's /healthz once, concurrently.
func (rt *Router) checkAll() {
	var wg sync.WaitGroup
	for i := range rt.cfg.Replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt.healthy[i].Store(rt.probe(i))
		}(i)
	}
	wg.Wait()
}

func (rt *Router) probe(i int) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rt.probeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.cfg.Replicas[i]+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (rt *Router) probeTimeout() time.Duration {
	if rt.cfg.HealthInterval > 0 && rt.cfg.HealthInterval < time.Second {
		return rt.cfg.HealthInterval
	}
	return time.Second
}

// Handler returns the router's HTTP routes — the same surface as a
// single replica, so clients and drivers point at either unchanged.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", rt.handleSolve)
	mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// sequenceFor returns the replica attempt order for one route key under
// the configured policy: the ring sequence for hash routing, a seeded
// random permutation for the ablation baseline. Unhealthy replicas sink
// to the back of the order (kept as last resorts: when everything is
// marked down, trying is better than failing).
func (rt *Router) sequenceFor(key uint64) []int {
	var seq []int
	switch rt.cfg.Policy {
	case PolicyRandom:
		rt.rngMu.Lock()
		seq = rt.rng.Perm(len(rt.cfg.Replicas))
		rt.rngMu.Unlock()
	default:
		seq = rt.ring.Sequence(key)
	}
	ordered := make([]int, 0, len(seq))
	for _, i := range seq {
		if rt.healthy[i].Load() {
			ordered = append(ordered, i)
		}
	}
	for _, i := range seq {
		if !rt.healthy[i].Load() {
			ordered = append(ordered, i)
		}
	}
	return ordered
}

// forward POSTs body to one replica and returns the response. A
// transport error marks the replica unhealthy immediately (the health
// loop re-admits it when /healthz recovers).
func (rt *Router) forward(ctx context.Context, replica int, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rt.cfg.Replicas[replica]+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.healthy[replica].Store(false)
		return nil, err
	}
	return resp, nil
}

// retryable reports whether a replica response should be retried on a
// fallback replica: only saturation (503) — any other status is the
// request's own answer, identical on every replica.
func retryable(status int) bool { return status == http.StatusServiceUnavailable }

// trySequence forwards body along the attempt order until a
// non-retryable response, backing off linearly between attempts. It
// returns the final response (body fully read) and the replica that
// produced it.
func (rt *Router) trySequence(ctx context.Context, seq []int, path string, body []byte) (status int, respBody []byte, replica int, err error) {
	var lastErr error
	for attempt, rep := range seq {
		if attempt > 0 {
			rt.fallbackRetries.Add(1)
			if d := rt.cfg.RetryBackoff; d > 0 {
				select {
				case <-time.After(time.Duration(attempt) * d):
				case <-ctx.Done():
					return 0, nil, -1, ctx.Err()
				}
			}
		}
		resp, ferr := rt.forward(ctx, rep, path, body)
		if ferr != nil {
			lastErr = ferr
			if ctx.Err() != nil {
				return 0, nil, -1, ctx.Err()
			}
			continue
		}
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			lastErr = rerr
			continue
		}
		if retryable(resp.StatusCode) && attempt < len(seq)-1 {
			lastErr = fmt.Errorf("replica %s: %s", rt.cfg.Replicas[rep], http.StatusText(resp.StatusCode))
			continue
		}
		return resp.StatusCode, b, rep, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("shard: no replica available")
	}
	return 0, nil, -1, lastErr
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req wire.SolveRequest
	if err := wire.Unmarshal(body, &req); err != nil {
		rt.rejectBadRequest(w, err)
		return
	}
	key, err := RouteKey(&req, rt.cfg.Eps)
	if err != nil {
		rt.rejectBadRequest(w, err)
		return
	}
	start := time.Now()
	status, respBody, rep, err := rt.trySequence(r.Context(), rt.sequenceFor(key), "/v1/solve", body)
	if err != nil {
		writeWire(w, http.StatusBadGateway, wire.ErrorResponse{Error: err.Error()})
		return
	}
	if status == http.StatusOK {
		rt.routed.Add(1)
		rt.perRep[rep].Add(1)
		rt.lat.Record(time.Since(start))
	}
	copyResponse(w, status, respBody)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req wire.BatchRequest
	if err := wire.Unmarshal(body, &req); err != nil {
		rt.rejectBadRequest(w, err)
		return
	}
	if len(req.Instances) == 0 {
		rt.rejectBadRequest(w, fmt.Errorf("missing \"instances\""))
		return
	}
	// Group items by owning replica, preserving input positions, then
	// forward one sub-batch per replica concurrently and merge outcomes
	// back into input order.
	groups := make(map[int][]int)
	for i := range req.Instances {
		item := req.Item(i)
		key, err := RouteKey(&item, rt.cfg.Eps)
		if err != nil {
			rt.rejectBadRequest(w, fmt.Errorf("instance %d: %w", i, err))
			return
		}
		owner := rt.sequenceFor(key)[0]
		groups[owner] = append(groups[owner], i)
	}

	start := time.Now()
	outcomes := make([]wire.BatchItem, len(req.Instances))
	var wg sync.WaitGroup
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner int, idxs []int) {
			defer wg.Done()
			rt.forwardGroup(r.Context(), &req, owner, idxs, outcomes)
		}(owner, idxs)
	}
	wg.Wait()
	writeWire(w, http.StatusOK, wire.BatchResponse{Outcomes: outcomes, ElapsedUS: time.Since(start).Microseconds()})
}

// forwardGroup sends the sub-batch holding idxs to owner (falling back
// along the ring on failure) and scatters its outcomes into out.
func (rt *Router) forwardGroup(ctx context.Context, req *wire.BatchRequest, owner int, idxs []int, out []wire.BatchItem) {
	// Forward the resolved spec flat — replicas running the legacy flat
	// decoding and ones understanding the nested "spec" form both read
	// it identically.
	sub := wire.BatchRequest{SolveSpec: req.EffectiveSpec()}
	for _, i := range idxs {
		sub.Instances = append(sub.Instances, req.Instances[i])
	}
	var buf bytes.Buffer
	if err := wire.Encode(&buf, sub); err != nil {
		for _, i := range idxs {
			out[i] = wire.BatchItem{Error: err.Error()}
		}
		return
	}
	// Fallback order: the owner first, then the remaining replicas in
	// index order — any distinct replica serves identically.
	seq := make([]int, 0, len(rt.cfg.Replicas))
	seq = append(seq, owner)
	for i := range rt.cfg.Replicas {
		if i != owner {
			seq = append(seq, i)
		}
	}
	status, respBody, rep, err := rt.trySequence(ctx, seq, "/v1/batch", buf.Bytes())
	if err != nil {
		for _, i := range idxs {
			out[i] = wire.BatchItem{Error: err.Error()}
		}
		return
	}
	if status != http.StatusOK {
		var er wire.ErrorResponse
		msg := http.StatusText(status)
		if wire.Unmarshal(respBody, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		for _, i := range idxs {
			out[i] = wire.BatchItem{Error: msg}
		}
		return
	}
	var br wire.BatchResponse
	if err := wire.Unmarshal(respBody, &br); err != nil || len(br.Outcomes) != len(idxs) {
		for _, i := range idxs {
			out[i] = wire.BatchItem{Error: fmt.Sprintf("shard: bad sub-batch response from %s", rt.cfg.Replicas[rep])}
		}
		return
	}
	rt.routed.Add(1)
	rt.perRep[rep].Add(1)
	for j, i := range idxs {
		out[i] = br.Outcomes[j]
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	window := 0
	if v := r.URL.Query().Get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeWire(w, http.StatusBadRequest, wire.ErrorResponse{Error: "\"window\" must be a positive integer"})
			return
		}
		window = n
	}
	writeWire(w, http.StatusOK, rt.statsPayload(window))
}

func (rt *Router) statsPayload(window int) map[string]any {
	replicas := make([]map[string]any, len(rt.cfg.Replicas))
	for i, url := range rt.cfg.Replicas {
		replicas[i] = map[string]any{
			"url":     url,
			"healthy": rt.healthy[i].Load(),
			"routed":  rt.perRep[i].Load(),
		}
	}
	payload := map[string]any{
		"uptime_s": time.Since(rt.start).Seconds(),
		"router": map[string]any{
			"policy": string(rt.cfg.Policy),
			"vnodes_per_replica": func() int {
				if rt.cfg.VNodes > 0 {
					return rt.cfg.VNodes
				}
				return DefaultVNodes
			}(),
			"requests":         rt.requests.Load(),
			"routed":           rt.routed.Load(),
			"fallback_retries": rt.fallbackRetries.Load(),
			"route_errors":     rt.routeErrors.Load(),
		},
		"replicas": replicas,
		"latency":  rt.lat.Percentiles(0),
	}
	if window > 0 {
		payload["window"] = rt.lat.Percentiles(window)
	}
	return payload
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := 0
	for i := range rt.healthy {
		if rt.healthy[i].Load() {
			healthy++
		}
	}
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
	}
	writeWire(w, status, map[string]any{
		"status":           map[bool]string{true: "ok", false: "no healthy replicas"}[healthy > 0],
		"uptime_s":         time.Since(rt.start).Seconds(),
		"replicas":         len(rt.cfg.Replicas),
		"healthy_replicas": healthy,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	all := rt.lat.Percentiles(0)
	type metric struct {
		name, typ string
		value     int64
	}
	for _, m := range []metric{
		{"bagsched_router_requests_total", "counter", rt.requests.Load()},
		{"bagsched_router_routed_total", "counter", rt.routed.Load()},
		{"bagsched_router_fallback_retries_total", "counter", rt.fallbackRetries.Load()},
		{"bagsched_router_route_errors_total", "counter", rt.routeErrors.Load()},
		{"bagsched_router_latency_p50_microseconds", "gauge", all.P50},
		{"bagsched_router_latency_p90_microseconds", "gauge", all.P90},
		{"bagsched_router_latency_p99_microseconds", "gauge", all.P99},
	} {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", m.name, m.typ, m.name, m.value)
	}
	fmt.Fprintf(w, "# TYPE bagsched_router_replica_healthy gauge\n")
	for i, url := range rt.cfg.Replicas {
		v := int64(0)
		if rt.healthy[i].Load() {
			v = 1
		}
		fmt.Fprintf(w, "bagsched_router_replica_healthy{replica=%q} %d\n", url, v)
	}
	fmt.Fprintf(w, "# TYPE bagsched_router_replica_routed_total counter\n")
	for i, url := range rt.cfg.Replicas {
		fmt.Fprintf(w, "bagsched_router_replica_routed_total{replica=%q} %d\n", url, rt.perRep[i].Load())
	}
}

func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		rt.rejectBadRequest(w, err)
		return nil, false
	}
	return body, true
}

func (rt *Router) rejectBadRequest(w http.ResponseWriter, err error) {
	rt.routeErrors.Add(1)
	writeWire(w, http.StatusBadRequest, wire.ErrorResponse{Error: err.Error()})
}

func copyResponse(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // the client may be gone
}

// writeWire answers exactly as a replica does: the body is encoded into
// a pooled buffer before the header goes out and is sent with its
// Content-Length, and a document that does not encode becomes a 422
// (see server.WriteJSON).
func writeWire(w http.ResponseWriter, status int, v any) {
	server.WriteJSON(w, status, v) //nolint:errcheck // only a merged batch can fail, and it answers 422 itself
}
