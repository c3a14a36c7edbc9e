// Command service is the load driver for the bagsched solve service: it
// replays an instance corpus (by default the repository's testdata
// fixtures) against a running server for several passes and reports the
// cold-vs-warm latency profile from the server's own GET /v1/stats
// window percentiles.
//
// The first pass hits an empty cache and pays the full EPTAS
// guess-enumeration cost per instance; every later pass replays the
// identical workload, so the shared cross-request memo serves each guess
// from memory and the p50 collapses. A run ends with a PASS/FAIL line
// against the -speedup threshold (default 2x, the serving-layer
// acceptance bar).
//
// Usage:
//
//	bagsched serve -addr :8080 &        # or: make serve
//	go run ./examples/service -addr http://127.0.0.1:8080 -dir testdata
//
// Flags select the corpus directory, pass count, request concurrency,
// accuracy and backend; -no-cache replays with the shared cache bypassed
// (a control run: without the cache, warm passes stay as slow as cold
// ones).
//
// The replay is mixed-family: each instance is routed to its problem
// family from its own JSON (a non-uniform "speeds" array marks a
// related-machines instance, everything else replays as bags), the
// "family" field rides on every solve request, and the run ends with a
// per-family cold-vs-warm p50 breakdown read from the families section
// of GET /v1/stats — so one run profiles the shared cache across every
// family the corpus exercises.
//
// With -churn the driver switches to churn-replay mode (see churn.go):
// it replays churn traces through POST /v1/resolve against a
// from-scratch /v1/solve baseline and gates on the incremental speedup:
//
//	go run ./examples/service -addr http://127.0.0.1:8080 -churn testdata
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

type solveReply struct {
	Makespan  float64 `json:"makespan"`
	Guesses   int     `json:"guesses"`
	CacheHits int     `json:"cache_hits"`
	ElapsedUS int64   `json:"elapsed_us"`
	Error     string  `json:"error"`
}

type window struct {
	Count int   `json:"count"`
	P50   int64 `json:"p50_us"`
	P90   int64 `json:"p90_us"`
	P99   int64 `json:"p99_us"`
	Max   int64 `json:"max_us"`
}

type statsReply struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Entries   int   `json:"entries"`
		CostBytes int64 `json:"cost_bytes"`
	} `json:"cache"`
	Window   window               `json:"window"`
	Families map[string]famWindow `json:"families"`
}

// famWindow is one family's slice of the stats payload.
type famWindow struct {
	Solves int64  `json:"solves"`
	Window window `json:"window"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of a running bagsched serve")
	dir := flag.String("dir", "testdata", "directory of instance JSONs to replay")
	passes := flag.Int("passes", 3, "replay passes over the corpus (pass 1 is cold)")
	concurrency := flag.Int("concurrency", 4, "concurrent in-flight requests")
	eps := flag.Float64("eps", 0.5, "accuracy parameter")
	backend := flag.String("backend", "", "pin the oracle backend: bnb or cfgdp (empty = the default policy)")
	noCache := flag.Bool("no-cache", false, "bypass the shared cache (control run)")
	speedup := flag.Float64("speedup", 2, "required cold-p50 / warm-p50 ratio for PASS")
	replicas := flag.Int("replicas", 0, "run the in-process multi-replica mode with this many sharded replicas (0 = single-server replay against -addr)")
	requests := flag.Int("requests", 192, "multi-replica: requests per trace pass")
	distinct := flag.Int("distinct", 512, "multi-replica: synthetic corpus size grown from -dir by job-size perturbation")
	zipfS := flag.Float64("zipf-s", 1.1, "multi-replica: Zipf skew of the trace (> 1)")
	seed := flag.Int64("seed", 1, "multi-replica: trace and perturbation seed")
	routeSpeedup := flag.Float64("route-speedup", 2, "multi-replica: required random-p50 / hash-p50 warm ratio for PASS")
	hitRate := flag.Float64("hit-rate", 0.5, "multi-replica: required first-pass cache hit rate on the snapshot-warmed replica")
	maxJobs := flag.Int("max-jobs", 64, "multi-replica: skip corpus instances with more jobs (the mode measures routing, not solver scale; 0 = keep all)")
	churn := flag.String("churn", "", "churn-replay mode: a churn trace file, or a directory of churn_*.json traces, replayed via /v1/resolve against a from-scratch /v1/solve baseline")
	churnRepair := flag.Bool("churn-repair", false, "churn-replay: enable the placement-repair fast path (repaired steps certify instead of matching bit for bit)")
	resolveSpeedup := flag.Float64("resolve-speedup", 5, "churn-replay: required from-scratch-p50 / incremental-p50 ratio for PASS on low-churn traces")
	slo := flag.Bool("slo", false, "SLO replay mode: calibrate an in-process server's cost model, then replay a mixed-deadline Zipf trace adaptively vs at fixed eps and gate on the deadline-hit rate")
	sloHit := flag.Float64("slo-hit", 0.95, "slo: required adaptive deadline-hit rate for PASS (the fixed-eps baseline must also be beaten)")
	flag.Parse()

	if *slo {
		if *zipfS <= 1 {
			fmt.Fprintln(os.Stderr, "service: -zipf-s must be > 1")
			os.Exit(1)
		}
		if err := runSLO(*dir, *requests, *maxJobs, *eps, *zipfS, *seed, *sloHit); err != nil {
			fmt.Fprintln(os.Stderr, "service:", err)
			os.Exit(1)
		}
		return
	}
	if *churn != "" {
		if err := runChurn(*addr, *churn, *passes, *eps, *backend, *churnRepair, *resolveSpeedup); err != nil {
			fmt.Fprintln(os.Stderr, "service:", err)
			os.Exit(1)
		}
		return
	}
	if *replicas > 0 {
		if *zipfS <= 1 {
			fmt.Fprintln(os.Stderr, "service: -zipf-s must be > 1")
			os.Exit(1)
		}
		if err := runMulti(*dir, *replicas, *requests, *distinct, *concurrency, *maxJobs, *eps, *backend, *zipfS, *seed, *routeSpeedup, *hitRate); err != nil {
			fmt.Fprintln(os.Stderr, "service:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*addr, *dir, *passes, *concurrency, *eps, *backend, *noCache, *speedup); err != nil {
		fmt.Fprintln(os.Stderr, "service:", err)
		os.Exit(1)
	}
}

func run(addr, dir string, passes, concurrency int, eps float64, backend string, noCache bool, speedup float64) error {
	corpus, names, fams, err := loadCorpus(dir)
	if err != nil {
		return err
	}
	// The per-family breakdown needs each family's per-pass solve count:
	// that count is the stats window isolating one pass of that family.
	famCount := map[string]int{}
	var famOrder []string
	for _, f := range fams {
		if famCount[f] == 0 {
			famOrder = append(famOrder, f)
		}
		famCount[f]++
	}
	sort.Strings(famOrder)
	fmt.Printf("replaying %d instances from %s against %s (%d passes, concurrency %d, eps %g, cache %v, families %s)\n",
		len(corpus), dir, addr, passes, concurrency, eps, !noCache, strings.Join(famOrder, "+"))

	if err := waitHealthy(addr); err != nil {
		return err
	}

	var p50s []int64
	famP50s := map[string][]int64{}
	var baseline []float64
	for pass := 1; pass <= passes; pass++ {
		makespans, err := replay(addr, corpus, fams, concurrency, eps, backend, noCache)
		if err != nil {
			return fmt.Errorf("pass %d: %w", pass, err)
		}
		st, err := fetchStats(addr, len(corpus))
		if err != nil {
			return err
		}
		w := st.Window
		label := "warm"
		if pass == 1 {
			label = "cold"
		}
		fmt.Printf("pass %d (%s): p50 %s  p90 %s  p99 %s  max %s  (cache: %d hits, %d misses, %d entries, %s)\n",
			pass, label, us(w.P50), us(w.P90), us(w.P99), us(w.Max),
			st.Cache.Hits, st.Cache.Misses, st.Cache.Entries, bytesHuman(st.Cache.CostBytes))
		p50s = append(p50s, w.P50)
		// One stats read per family, windowed to that family's share of
		// this pass (the window parameter applies to every latency ring in
		// the payload, so each family needs its own request).
		for _, f := range famOrder {
			fst, err := fetchStats(addr, famCount[f])
			if err != nil {
				return err
			}
			fw, ok := fst.Families[f]
			if !ok {
				return fmt.Errorf("pass %d: /v1/stats has no %q family section", pass, f)
			}
			fmt.Printf("  family %-9s p50 %s  p90 %s  (%d solves total)\n",
				f, us(fw.Window.P50), us(fw.Window.P90), fw.Solves)
			famP50s[f] = append(famP50s[f], fw.Window.P50)
		}

		if pass == 1 {
			// Remember the cold answers; warm passes must reproduce them
			// bit for bit (the result-transparency contract, checked from
			// the client's side of the wire).
			baseline = makespans
		} else {
			for i := range makespans {
				if makespans[i] != baseline[i] {
					return fmt.Errorf("pass %d: %s returned makespan %.17g, cold pass returned %.17g — caching must be result-transparent",
						pass, names[i], makespans[i], baseline[i])
				}
			}
		}
	}

	if passes >= 2 {
		for _, f := range famOrder {
			ps := famP50s[f]
			cold, warm := ps[0], ps[len(ps)-1]
			fmt.Printf("family %-9s cold p50 %s -> warm p50 %s (%.1fx)\n",
				f, us(cold), us(warm), float64(cold)/float64(max64(warm, 1)))
		}
		cold, warm := p50s[0], p50s[len(p50s)-1]
		ratio := float64(cold) / float64(max64(warm, 1))
		verdict := "PASS"
		if ratio < speedup {
			verdict = "FAIL"
		}
		fmt.Printf("cold p50 %s -> warm p50 %s: %.1fx speedup (threshold %.1fx): %s\n",
			us(cold), us(warm), ratio, speedup, verdict)
		if verdict == "FAIL" {
			return fmt.Errorf("warm speedup %.2fx below %.1fx", ratio, speedup)
		}
	}
	return nil
}

// loadCorpus reads every instance JSON in dir (skipping *.schedule.json
// outputs), sorted by name for deterministic replay order, and tags each
// instance with the problem family it replays as.
func loadCorpus(dir string) ([]json.RawMessage, []string, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".schedule.json") {
			continue
		}
		// Churn traces are base+delta documents, not plain instances;
		// they replay through the -churn mode instead.
		if strings.HasPrefix(name, "churn_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil, nil, fmt.Errorf("no instance JSONs in %s", dir)
	}
	corpus := make([]json.RawMessage, len(names))
	fams := make([]string, len(names))
	for i, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, nil, err
		}
		corpus[i] = raw
		fams[i] = familyOf(raw)
	}
	return corpus, names, fams, nil
}

// familyOf picks the problem family an instance replays as: a
// non-uniform speeds array marks a related-machines instance (the bags
// family rejects it by contract), everything else replays as the
// default bags family.
func familyOf(raw json.RawMessage) string {
	var probe struct {
		Speeds []float64 `json:"speeds"`
	}
	if err := json.Unmarshal(raw, &probe); err == nil {
		for _, s := range probe.Speeds {
			if s != probe.Speeds[0] {
				return "related"
			}
		}
	}
	return "bags"
}

// waitHealthy polls GET /healthz briefly so `make serve` in one terminal
// and `make loadtest` in another don't race server startup.
func waitHealthy(addr string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy (is `bagsched serve` running?): %v", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// replay posts every corpus instance once, at most concurrency in
// flight, and returns the makespans in corpus order. fams[i] is the
// family instance i is solved as.
func replay(addr string, corpus []json.RawMessage, fams []string, concurrency int, eps float64, backend string, noCache bool) ([]float64, error) {
	makespans := make([]float64, len(corpus))
	errs := make([]error, len(corpus))
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for i, raw := range corpus {
		wg.Add(1)
		go func(i int, raw json.RawMessage) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			body := map[string]any{"instance": raw, "eps": eps, "no_cache": noCache, "family": fams[i]}
			if backend != "" {
				body["backend"] = backend
			}
			buf, err := json.Marshal(body)
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := http.Post(addr+"/v1/solve", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var reply solveReply
			if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, reply.Error)
				return
			}
			makespans[i] = reply.Makespan
		}(i, raw)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return makespans, nil
}

// fetchStats reads the server's latency window over the last n solves.
func fetchStats(addr string, n int) (*statsReply, error) {
	resp, err := http.Get(fmt.Sprintf("%s/v1/stats?window=%d", addr, n))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var st statsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func us(v int64) string { return (time.Duration(v) * time.Microsecond).String() }

func bytesHuman(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
