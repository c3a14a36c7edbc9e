// Command perfbench is the repository benchmark. It drives an
// in-process solve service (internal/server with its default
// configuration) over loopback HTTP with a real client, from one
// process with at most two connections, and reports end-to-end metrics;
// with --trace 1 it reports the per-layer split instead.
//
//	perfbench --workload cold-solve --seed 1 --seconds 20 --trace 0
//	perfbench --table   # rewrite perfbench/WHERE_TIME_GOES.md from the traced runs
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/memo"
)

// outDir holds the traced runs' spans and per-layer summaries.
const outDir = ".bench_build/out"

// metric is one named, unit-carrying value of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold-solve, warm-zipf or churn-resolve")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer split instead of the timed run")
	table := flag.Bool("table", false, "write perfbench/WHERE_TIME_GOES.md from the traced runs' summaries")
	flag.Parse()

	if *table {
		if err := writeTable(outDir, filepath.Join("perfbench", "WHERE_TIME_GOES.md")); err != nil {
			fail(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	var res *result
	if *trace == 1 {
		res, err = runTraced(os.Stdout, w, *seed, *seconds, defaultScale, outDir)
	} else {
		res, err = runTimed(os.Stdout, w, *seed, *seconds, defaultScale)
	}
	if err != nil {
		fail(err)
	}
	json.NewEncoder(os.Stdout).Encode(res) //nolint:errcheck // stdout
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// env is one set-up service: the corpus, the primed server and a client.
type env struct {
	cs     *corpus
	svc    *service
	cl     *http.Client
	refs   map[int]answer // first answers of the working-set slots
	primed []*response
	replay *inproc // the traced pass's in-process replay
}

// setup generates the corpus, starts a server and primes its cache with
// the corpus's prime calls (warm working set, churn base solves).
func setup(w workloadDef, seed int64, seconds float64, sc scale, spans *serverSpans) (*env, error) {
	cs, err := w.gen(seed, seconds, sc)
	if err != nil {
		return nil, err
	}
	svc, err := startService(spans)
	if err != nil {
		if cs.free != nil {
			cs.free()
		}
		return nil, err
	}
	e := &env{cs: cs, svc: svc, cl: newHTTPClient()}
	rec := newRecorder(nil, nil)
	e.primed, err = prime(e.cl, svc.base, cs.prime, rec)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("priming: %w", err)
	}
	e.refs = rec.refs
	return e, nil
}

// close stops the server, then frees the corpus: no request can read
// its bodies any more.
func (e *env) close() {
	e.cl.CloseIdleConnections()
	e.svc.close()
	if e.cs.free != nil {
		e.cs.free()
	}
}

// source starts a fresh closed-loop pass, seeded with the primed answers
// where the workload needs them.
func (e *env) source() source {
	src := e.cs.newSource()
	if ch, ok := src.(*churnSource); ok {
		for i, p := range e.primed {
			ch.setPrior(i, p)
		}
	}
	return src
}

// phase is one measured pass of a workload's traffic. The pass is cut
// into equal windows; cpu holds the process CPU time at each window
// boundary.
type phase struct {
	start   time.Time
	window  time.Duration
	wall    time.Duration
	cpu     [windows + 1]time.Duration
	heap    uint64        // live heap at the start
	steal   time.Duration // CPU time the hypervisor took from the machine
	allocs  uint64        // bytes allocated during the phase
	gcs     uint32
	cache0  memo.Stats
	cache1  memo.Stats
	samples []*sample
}

// measure runs the workload's traffic against e for the given length,
// sampling the process CPU time at every window boundary. The phase is
// traced when e has an in-process replay.
func measure(e *env, seconds float64) *phase {
	ph := &phase{window: time.Duration(seconds * float64(time.Second) / windows)}
	rec := newRecorder(e.refs, e.replay)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	ph.heap = ms0.HeapAlloc
	ph.cache0 = e.svc.srv.Cache().Stats()
	steal0 := stealTime()
	ph.start = time.Now().Add(10 * time.Millisecond)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := range ph.cpu {
			time.Sleep(time.Until(ph.start.Add(time.Duration(k) * ph.window)))
			ph.cpu[k] = cpuTime()
		}
	}()
	closedLoop(e.cl, e.svc.base, e.source(), rec, ph.start, windows*ph.window)
	ph.wall = time.Since(ph.start)
	ph.steal = stealTime() - steal0
	<-sampled
	runtime.ReadMemStats(&ms1)
	ph.cache1 = e.svc.srv.Cache().Stats()
	ph.allocs = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcs = ms1.NumGC - ms0.NumGC
	ph.samples = rec.samples
	return ph
}

// windowStats are the per-window figures of a phase, by completion time;
// requests completing after the last window are checked but not timed.
type windowStats struct {
	throughput, cpuPerReq, p50, p99 []float64
	smallest                        int
}

func (ph *phase) windows() windowStats {
	lat := make([][]float64, windows)
	for _, s := range ph.ok() {
		if k := int(s.end.Sub(ph.start) / ph.window); k >= 0 && k < windows {
			lat[k] = append(lat[k], ms(s.end.Sub(s.start)))
		}
	}
	ws := windowStats{smallest: len(ph.samples)}
	for k, l := range lat {
		ws.smallest = min(ws.smallest, len(l))
		if len(l) == 0 {
			continue
		}
		sort.Float64s(l)
		ws.throughput = append(ws.throughput, float64(len(l))/ph.window.Seconds())
		ws.cpuPerReq = append(ws.cpuPerReq, ms(ph.cpu[k+1]-ph.cpu[k])/float64(len(l)))
		ws.p50 = append(ws.p50, quantile(l, 0.50))
		ws.p99 = append(ws.p99, quantile(l, 0.99))
	}
	return ws
}

// ok returns the samples that completed and passed every check.
func (ph *phase) ok() []*sample {
	var out []*sample
	for _, s := range ph.samples {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// report prints the first few failures to standard error and returns
// the counts.
func (ph *phase) report() (attempted, failed int) {
	for _, s := range ph.samples {
		if s.err != nil {
			if failed < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", s.id, s.err)
			}
			failed++
		}
	}
	return len(ph.samples), failed
}

// runTimed is one untraced run: set up, measure, then set up again
// (setups-1 more times) so setup_s is a median.
func runTimed(out io.Writer, w workloadDef, seed int64, seconds float64, sc scale) (*result, error) {
	facts := machineFacts()
	fmt.Fprintf(out, "# facts %s\n", facts.JSON())
	setups := make([]float64, 0, sc.setups)
	t0 := time.Now()
	e, err := setup(w, seed, seconds, sc, nil)
	if err != nil {
		return nil, err
	}
	setups = append(setups, time.Since(t0).Seconds())
	ph := measure(e, seconds)
	rss := peakRSSMB()
	e.close()
	for len(setups) < sc.setups {
		t0 := time.Now()
		e, err := setup(w, seed, seconds, sc, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		e.close()
	}

	attempted, failed := ph.report()
	done := ph.ok()
	if len(done) == 0 {
		return nil, errors.New("no request completed")
	}
	var ratio float64
	for _, s := range done {
		ratio += s.makespan / s.lowerBound
	}
	ws := ph.windows()
	if ws.smallest < 1000 {
		fmt.Fprintf(os.Stderr, "perfbench: a window holds only %d requests; p99 needs 1000\n", ws.smallest)
	}
	m := map[string]metric{
		"throughput_rps": {median(ws.throughput), "1/s"},
		"p50_ms":         {median(ws.p50), "ms"},
		"p99_ms":         {median(ws.p99), "ms"},
		"cpu_ms_per_req": {median(ws.cpuPerReq), "ms"},
		"makespan_ratio": {ratio / float64(len(done)), "ratio"},
		"setup_s":        {median(setups), "s"},
		"peak_rss_mb":    {rss, "MiB"},
	}
	errorRatio := float64(failed) / float64(attempted)
	fmt.Fprintf(out, "# %s seed %d: %d requests in %.2fs; medians over %d windows of >= %d completed requests\n",
		w.name, seed, attempted, ph.wall.Seconds(), windows, ws.smallest)
	fmt.Fprintf(out, "# when timing starts: live heap %.1f MiB (the server, its primed memo, the working set); corpus outside the heap %.1f MiB\n",
		float64(ph.heap)/(1<<20), float64(e.cs.offHeap)/(1<<20))
	fmt.Fprintf(out, "# CPU in the timed phase: the process used %.0f%% of %d cores; the hypervisor took %.0f%% of the machine (steal)\n",
		100*(ph.cpu[windows]-ph.cpu[0]).Seconds()/(windows*ph.window.Seconds()*float64(runtime.GOMAXPROCS(0))),
		runtime.GOMAXPROCS(0), 100*ph.steal.Seconds()/(ph.wall.Seconds()*float64(runtime.NumCPU())))
	fmt.Fprintf(out, "# per window: throughput_rps %s; cpu_ms_per_req %s\n", join(ws.throughput, "%.0f"), join(ws.cpuPerReq, "%.3f"))
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(out, "# %-16s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(out, "# %-16s %12.4f %s\n", "error_ratio", errorRatio, "ratio")
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func join(v []float64, format string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// windows is the number of equal slices of the timed phase. Rates and
// latency percentiles are taken per window and reported as the median
// over the windows, so a stall of the machine that lands in one window
// leaves them alone.
const windows = 5

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
