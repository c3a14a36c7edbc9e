package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	bagsched "repro"
	"repro/internal/server"
)

// runServe is the `bagsched serve` subcommand: the long-running solve
// service with one shared cross-request cache and one admission-
// controlled worker queue. See internal/server for the endpoints.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bagsched serve [flags]\n\n"+
			"Serve POST /v1/solve, POST /v1/batch, GET /v1/stats, GET /healthz and\n"+
			"GET /metrics over HTTP, sharing one bounded guess-memo cache and one\n"+
			"admission-controlled worker pool across all requests.\n\n")
		fs.PrintDefaults()
	}
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", -1, "max solves waiting beyond -workers (-1 = 4x workers; beyond that requests get 503)")
	cacheBytes := fs.Int64("cache-bytes", server.DefaultCacheBytes, "shared result-cache budget in bytes (0 = unbounded)")
	backendName := fs.String("backend", "bnb", "default oracle backend: bnb or cfgdp (requests may override)")
	eps := fs.Float64("eps", server.DefaultEps, "default accuracy parameter in (0,1) (requests may override)")
	maxTimeout := fs.Duration("max-timeout", server.DefaultMaxTimeout, "upper clamp on per-request solve timeouts")
	snapshotPath := fs.String("snapshot", "", "cache snapshot file: warm-start the cache from it on boot, persist the cache to it on graceful shutdown (a file that fails to load is left unchanged)")
	planSnapshotPath := fs.String("plan-snapshot", "", "planner cost-model snapshot file: warm-start the adaptive planner from it on boot, persist it on graceful shutdown (a file that fails to load is left unchanged)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments (got %q)", fs.Args())
	}
	backend, err := bagsched.ParseBackend(*backendName)
	if err != nil {
		return err
	}
	if *eps <= 0 || *eps >= 1 {
		return fmt.Errorf("-eps must be in (0,1), got %g", *eps)
	}

	cache := bagsched.NewCache(*cacheBytes)
	loaded, skipped, warmed, saveCache := loadSnapshot(cache, *snapshotPath)
	planner := bagsched.NewPlanModel()
	savePlan := loadPlanSnapshot(planner, *planSnapshotPath)
	srv := server.New(server.Config{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		Cache:      cache,
		Eps:        *eps,
		Backend:    backend,
		MaxTimeout: *maxTimeout,
		Planner:    planner,
	})
	srv.PublishExpvar()
	if warmed {
		srv.RecordSnapshot(loaded, skipped)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, let running
	// solves finish (bounded by their own deadlines).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Printf("bagsched serve: listening on %s (workers %d, queue depth %d, cache %d bytes, backend %s, eps %g)\n",
		*addr, srv.Workers(), srv.QueueDepth(), *cacheBytes, backend, *eps)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-done; err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	st := cache.Stats()
	fmt.Printf("bagsched serve: drained; cache served %d hits / %d lookups\n", st.Hits, st.Hits+st.Misses)
	// Persisting is best-effort: a failed snapshot only costs the next
	// boot its warm start.
	persist("snapshot", *snapshotPath, saveCache, func(path string) error { return saveSnapshot(cache, path) })
	persist("plan snapshot", *planSnapshotPath, savePlan, func(path string) error { return savePlanSnapshot(planner, path) })
	return nil
}

// persist writes a snapshot to path at shutdown through save, unless the
// boot found a file there it could not load (writable false): that file
// is left as it is for an operator to inspect, never replaced by the
// cold state the server ran with.
func persist(what, path string, writable bool, save func(path string) error) {
	if path == "" {
		return
	}
	if !writable {
		fmt.Fprintf(os.Stderr, "bagsched serve: warning: %s %s was not loaded at boot; left unchanged\n", what, path)
		return
	}
	if err := save(path); err != nil {
		fmt.Fprintf(os.Stderr, "bagsched serve: warning: %s not saved: %v\n", what, err)
	}
}

// loadPlanSnapshot warm-starts the planner's cost model from path; like
// the cache snapshot, every failure is a logged skip, never fatal — an
// adaptive planner works (conservatively) from a cold model. It reports
// whether shutdown may write path: when no file was there or its import
// succeeded.
func loadPlanSnapshot(m *bagsched.PlanModel, path string) (writable bool) {
	if path == "" {
		return true
	}
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			fmt.Printf("bagsched serve: no plan snapshot at %s, planner starts cold\n", path)
			return true
		}
		fmt.Fprintf(os.Stderr, "bagsched serve: warning: plan snapshot unreadable, planner starts cold: %v\n", err)
		return false
	}
	defer f.Close()
	if err := bagsched.ImportPlanModel(m, f); err != nil {
		fmt.Fprintf(os.Stderr, "bagsched serve: warning: plan snapshot %s skipped, planner starts cold: %v\n", path, err)
		return false
	}
	st := m.Snapshot()
	fmt.Printf("bagsched serve: planner warm-started from %s: %d cells, %d observations\n",
		path, st.Cells, st.Observations)
	return true
}

// savePlanSnapshot persists the planner's cost model atomically (temp
// file + rename), exactly like the cache snapshot.
func savePlanSnapshot(m *bagsched.PlanModel, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = bagsched.ExportPlanModel(m, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	st := m.Snapshot()
	fmt.Printf("bagsched serve: plan snapshot saved to %s (%d cells)\n", path, st.Cells)
	return nil
}

// loadSnapshot warm-starts cache from path. Every failure — missing
// file, corrupt container, version mismatch — is a logged skip, never
// fatal: a replica must boot (cold) no matter what is on disk. It
// reports what was loaded, whether an import ran at all, and whether
// shutdown may write path: when no file was there or its import
// succeeded.
func loadSnapshot(cache *bagsched.Cache, path string) (loaded, skipped int, warmed, writable bool) {
	if path == "" {
		return 0, 0, false, true
	}
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			fmt.Printf("bagsched serve: no snapshot at %s, starting cold\n", path)
			return 0, 0, false, true
		}
		fmt.Fprintf(os.Stderr, "bagsched serve: warning: snapshot unreadable, starting cold: %v\n", err)
		return 0, 0, false, false
	}
	defer f.Close()
	st, err := bagsched.ImportCacheSnapshot(cache, f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bagsched serve: warning: snapshot %s skipped, starting cold: %v\n", path, err)
		return 0, 0, false, false
	}
	fmt.Printf("bagsched serve: warm-started from %s: %d entries loaded, %d skipped (%d existing, %d over budget, %d undecodable)\n",
		path, st.Loaded, st.Skipped(), st.SkippedExisting, st.SkippedBudget, st.SkippedDecode)
	return st.Loaded, st.Skipped(), true, true
}

// saveSnapshot persists cache to path atomically (temp file + rename),
// so a crash mid-write can never leave a truncated snapshot where the
// next boot would find it.
func saveSnapshot(cache *bagsched.Cache, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	written, err := bagsched.ExportCacheSnapshot(cache, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	fmt.Printf("bagsched serve: snapshot saved to %s (%d entries)\n", path, written)
	return nil
}
