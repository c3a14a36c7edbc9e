// Command bagsched solves bag-constrained scheduling instances and prints
// schedules and statistics.
//
// Usage:
//
//	bagsched [-algo eptas|baglpt|lpt|greedy|roundrobin|exact|daswiese]
//	         [-eps 0.5] [-backend bnb|cfgdp]
//	         [-family bags|identical|related]
//	         [-in instance.json] [-out schedule.json]
//	         [-timeout 30s] [-v]
//	bagsched -batch dir [-eps 0.5] [-backend ...] [-family ...]
//	         [-workers N] [-timeout 5m]
//	bagsched serve [-addr :8080] [-workers N] [-cache-bytes N]
//	         [-eps 0.5] [-queue-depth N] [-max-timeout 2m]
//	         [-snapshot cache.bgms] [-plan-snapshot plan.json]
//	bagsched route -replicas http://h1:8080,http://h2:8080[,...]
//	         [-addr :8090] [-vnodes 64] [-policy hash|random] [-eps 0.5]
//	         [-health-interval 1s]
//	bagsched resolve -delta delta.json [-in instance.json] [-eps 0.5]
//	         [-backend ...] [-family ...] [-repair] [-compare]
//	         [-out schedule.json] [-timeout 30s] [-v]
//
// In batch mode every instance JSON in dir (files matching *.json,
// excluding earlier *.schedule.json outputs) is solved with the EPTAS on
// a worker pool, and each schedule is written alongside its instance as
// <name>.schedule.json.
//
// The serve subcommand runs the long-running solve service: an HTTP/JSON
// API (POST /v1/solve, POST /v1/batch, GET /v1/stats, GET /healthz, GET
// /metrics) sharing one bounded cross-request guess-memo cache and one
// admission-controlled worker pool across all requests. With -snapshot
// the cache is persisted to the given file on graceful shutdown and
// warm-started from it on boot (corrupt or version-mismatched snapshots
// are skipped with a warning, never fatal, and left unchanged at
// shutdown). See internal/server and the
// README's Serving and "Sharded serving" sections.
//
// The resolve subcommand solves an instance, applies a delta (jobs
// added/removed/resized/re-bagged, machines added/removed) and
// re-solves incrementally, warm-started from the prior solve; -compare
// additionally solves the post-delta instance from scratch and verifies
// the incremental answer is bit-identical, and -repair enables the
// placement-repair fast path. See the README's "Incremental re-solve"
// section for the delta grammar.
//
// The route subcommand fronts N serve replicas with the consistent-hash
// shard router (internal/shard): signature-equivalent requests always
// land on the replica whose cache already holds the entry, with health
// checks and retry/backoff to a fallback replica. It exposes the same
// HTTP surface as a single replica plus router stats and metrics.
//
// -backend pins the EPTAS's integer-programming oracle to one backend:
// LP-simplex branch-and-bound (bnb) or the exact configuration DP
// (cfgdp). Without it the default policy runs: cfgdp decides each
// guess, and bnb decides the guesses cfgdp declines or exhausts its
// budget on. The serve subcommand takes no -backend flag either; a
// request pins a backend with the "backend" field of its body.
//
// -family selects the problem family the EPTAS solves: bag-constrained
// scheduling (bags, the default), identical machines without bag
// constraints (identical), or uniformly related machines with few
// distinct speeds (related; the instance JSON carries a "speeds"
// array). The serve subcommand takes no -family flag — the service
// selects the family per request via the "family" field of the solve
// body.
//
// -timeout bounds the solver's wall-clock time via context cancellation
// (eptas and daswiese; in batch mode the deadline covers the whole
// batch). With -algo eptas, -v additionally prints the per-stage timing,
// cache report and oracle report (deciding backend and its work
// counters) of the pipeline engine.
//
// The instance format is:
//
//	{"machines": 4, "num_bags": 2,
//	 "jobs": [{"id": 0, "size": 0.8, "bag": 0}, ...]}
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	bagsched "repro"
	"repro/internal/pipeline"
	"repro/internal/sched"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bagsched serve:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "route" {
		if err := runRoute(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bagsched route:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "resolve" {
		if err := runResolve(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bagsched resolve:", err)
			os.Exit(1)
		}
		return
	}
	algo := flag.String("algo", "eptas", "algorithm: eptas, baglpt, lpt, greedy, roundrobin, exact, daswiese")
	eps := flag.Float64("eps", 0.5, "accuracy parameter for eptas/daswiese")
	backendName := flag.String("backend", "", "pin the eptas oracle backend: bnb or cfgdp (default: cfgdp, then bnb)")
	familyName := flag.String("family", "bags", "eptas problem family: bags, identical or related")
	inPath := flag.String("in", "-", "instance JSON file, or - for stdin")
	outPath := flag.String("out", "", "write the schedule JSON here (default: stdout summary only)")
	batchDir := flag.String("batch", "", "solve every instance JSON in this directory on a worker pool")
	workers := flag.Int("workers", 0, "batch worker count (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the solve after this long (eptas/daswiese; 0 = no limit)")
	verbose := flag.Bool("v", false, "print per-machine loads (and, for eptas, per-stage timing and cache report)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	backend, err := parseBackend(*backendName)
	if err == nil && *backendName != "" && *algo != "eptas" {
		err = fmt.Errorf("-backend applies to -algo eptas only (got %q)", *algo)
	}
	var fam bagsched.Family
	if err == nil {
		fam, err = bagsched.ParseFamily(*familyName)
		if err == nil && fam.Name() != bagsched.FamilyBags.Name() && *algo != "eptas" {
			err = fmt.Errorf("-family applies to -algo eptas only (got %q)", *algo)
		}
	}
	if err == nil {
		if *batchDir != "" {
			switch {
			case *inPath != "-":
				err = fmt.Errorf("-batch and -in are mutually exclusive")
			case *outPath != "":
				err = fmt.Errorf("-batch writes one schedule per instance; -out does not apply")
			case *verbose:
				err = fmt.Errorf("-v is not supported in batch mode")
			default:
				err = runBatch(ctx, *batchDir, *algo, *eps, backend, fam, *workers)
			}
		} else if *workers != 0 {
			err = fmt.Errorf("-workers applies to batch mode only (use -batch)")
		} else {
			if *timeout > 0 && *algo != "eptas" && *algo != "daswiese" {
				err = fmt.Errorf("-timeout supports -algo eptas or daswiese only (got %q; use -algo exact's own limit instead)", *algo)
			} else {
				err = run(ctx, *algo, *eps, backend, fam, *inPath, *outPath, *verbose)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bagsched:", err)
		os.Exit(1)
	}
}

// runBatch solves every instance JSON in dir concurrently and writes each
// schedule alongside its instance.
func runBatch(ctx context.Context, dir, algo string, eps float64, backend bagsched.OracleBackend, fam bagsched.Family, workers int) error {
	if algo != "eptas" {
		return fmt.Errorf("batch mode supports -algo eptas only (got %q)", algo)
	}
	paths, err := batchInputs(dir)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no instance JSONs in %s", dir)
	}
	ins := make([]*sched.Instance, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		ins[i], err = sched.ReadInstance(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}

	pool := bagsched.NewPool(workers)
	start := time.Now()
	outs := pool.SolveEPTASContext(ctx, ins, eps,
		bagsched.WithBackend(backend), bagsched.WithFamily(fam))
	elapsed := time.Since(start)

	failed := 0
	for i, o := range outs {
		if o.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s: error: %v\n", paths[i], o.Err)
			continue
		}
		outPath := strings.TrimSuffix(paths[i], ".json") + ".schedule.json"
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		werr := sched.WriteSchedule(f, o.Result.Schedule)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Printf("%s: makespan %.6f (%.2fx lower bound) -> %s\n",
			paths[i], o.Result.Makespan, o.Result.Makespan/o.Result.LowerBound, outPath)
	}
	solved := len(outs) - failed
	effWorkers := pool.Workers()
	if len(ins) < effWorkers {
		effWorkers = len(ins)
	}
	fmt.Printf("solved %d/%d instances in %s on %d workers (%.1f instances/s)\n",
		solved, len(outs), elapsed, effWorkers,
		float64(solved)/elapsed.Seconds())
	if failed > 0 {
		return fmt.Errorf("%d instance(s) failed", failed)
	}
	return nil
}

// batchInputs lists the instance JSONs of dir in sorted order, skipping
// schedule outputs from earlier batch runs. The directory is read
// literally (no glob interpretation), so metacharacters in its name are
// fine.
func batchInputs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".schedule.json") {
			continue
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	sort.Strings(paths)
	return paths, nil
}

func run(ctx context.Context, algo string, eps float64, backend bagsched.OracleBackend, fam bagsched.Family, inPath, outPath string, verbose bool) error {
	var in *sched.Instance
	var err error
	if inPath == "-" {
		in, err = sched.ReadInstance(os.Stdin)
	} else {
		f, ferr := os.Open(inPath)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		in, err = sched.ReadInstance(f)
	}
	if err != nil {
		return err
	}

	start := time.Now()
	var s *sched.Schedule
	// lb feeds the makespan ratio line; the EPTAS path overrides it with
	// the family-aware bound (the bag bound is invalid on speed
	// instances).
	lb := sched.LowerBound(in)
	switch algo {
	case "eptas":
		res, err := bagsched.SolveEPTASContext(ctx, in, eps,
			bagsched.WithBackend(backend), bagsched.WithFamily(fam))
		if err != nil {
			return err
		}
		s = res.Schedule
		lb = res.LowerBound
		fmt.Printf("lower bound: %.6f\n", res.LowerBound)
		fmt.Printf("guesses: %d  patterns: %d  milp nodes: %d  fallback: %v\n",
			res.Stats.Guesses, res.Stats.Patterns, res.Stats.MILPNodes, res.Stats.Fallback)
		fmt.Printf("quality: rung %s  bound %.4g  eps %g\n",
			res.Quality.Rung, res.Quality.Bound, res.Quality.EpsUsed)
		if verbose {
			printEngineReport(res.Stats)
		}
	case "daswiese":
		res, err := bagsched.SolveDasWieseContext(ctx, in, eps)
		if err != nil {
			return err
		}
		s = res.Schedule
	case "baglpt":
		s, err = bagsched.SolveBagLPT(in)
	case "lpt":
		s, err = bagsched.SolveLPT(in)
	case "greedy":
		s, err = bagsched.SolveGreedy(in)
	case "roundrobin":
		s, err = bagsched.SolveRoundRobin(in)
	case "exact":
		res, err := bagsched.SolveExact(in, 0)
		if err != nil {
			return err
		}
		s = res.Schedule
		fmt.Printf("proven optimal: %v  nodes: %d\n", res.Proven, res.Nodes)
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if err := s.Validate(); err != nil {
		return fmt.Errorf("produced schedule is invalid: %w", err)
	}
	fmt.Printf("algorithm: %s\n", algo)
	fmt.Printf("machines: %d  jobs: %d  bags: %d\n", in.Machines, len(in.Jobs), in.NumBags)
	fmt.Printf("makespan: %.6f  (%.2fx lower bound)\n", s.Makespan(), s.Makespan()/lb)
	fmt.Printf("elapsed: %s\n", elapsed)
	if verbose {
		for m, load := range s.Loads() {
			fmt.Printf("  machine %2d: load %.6f\n", m, load)
		}
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sched.WriteSchedule(f, s); err != nil {
			return err
		}
		fmt.Printf("schedule written to %s\n", outPath)
	}
	return nil
}

// parseBackend parses a -backend flag: empty keeps the default oracle
// policy, bnb or cfgdp pins that backend.
func parseBackend(name string) (bagsched.OracleBackend, error) {
	var policy bagsched.OracleBackend
	if name == "" {
		return policy, nil
	}
	return bagsched.ParseBackend(name)
}

// printEngineReport prints the per-stage timing, cross-guess cache and
// oracle report of one EPTAS solve.
func printEngineReport(st bagsched.Stats) {
	fmt.Printf("pipeline: %d runs over %d guesses\n", st.PipelineRuns, st.Guesses)
	for _, name := range pipeline.StageNames() {
		if d, ok := st.StageTime[name]; ok {
			fmt.Printf("  stage %-11s %12s\n", name, d.Round(time.Microsecond))
		}
	}
	total := st.CacheHits + st.CacheMisses
	if total > 0 {
		fmt.Printf("guess cache: %d hits / %d lookups (%.0f%%)\n",
			st.CacheHits, total, 100*float64(st.CacheHits)/float64(total))
	}
	if st.OracleBackend != "" {
		fmt.Printf("oracle: decided by %s (bnb nodes %d, dp states %d)\n",
			st.OracleBackend, st.MILPNodes, st.DPStates)
	}
}
