// Command benchjson runs the repository's benchmark suite and writes the
// results as a JSON snapshot, seeding the performance trajectory: each
// run produces a BENCH_<date>.json whose ns/op numbers can be diffed
// against earlier snapshots to catch hot-path regressions.
//
// Usage:
//
//	benchjson [-bench regexp] [-benchtime 1x] [-count 1] [-out file]
//	benchjson -compare [-benchtime 3x] [-count 1] [-threshold 1.25]
//
// By default it runs the EPTAS hot-path benchmarks (the EX suite of
// bench_test.go) once each and writes BENCH_<YYYY-MM-DD>.json in the
// current directory. With -compare it instead runs the tracked hot-path
// benchmarks fresh, diffs their ns/op against the latest committed
// BENCH_*.json snapshot, writes no file, and exits non-zero when any
// tracked benchmark regressed by more than the threshold (default 25%).
// It shells out to "go test -bench", so it needs the go toolchain — the
// same requirement as building the repo.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultBench selects the EPTAS hot paths: the EX experiment families
// (BenchmarkExF1, ExT*, ExS*, ExL*, ExB*, ExA* — an uppercase letter
// after "Ex" keeps BenchmarkExactSolver and other substrate
// micro-benchmarks out of the default snapshot), the oracle-backend
// benchmarks (BenchmarkOracleBnB/CfgDP/Portfolio, and
// BenchmarkOracleBnBLarge/CfgDPLarge with the full solve
// BenchmarkSolveLarge on the m=256 fixture), the sibling
// problem families (BenchmarkFamilyRelated/Identical), the serving
// codecs (BenchmarkCodec*: snapshot export/import, wire decode and
// encode — the per-request and per-warm-start overheads of the sharded
// service) and the incremental re-solve replays
// (BenchmarkResolve{LowChurn,HighChurn,FromScratch}: warm churn-trace
// replay against its cold baseline) and the adaptive-solving admission
// overhead (BenchmarkPlannerDecision: one cost-model Decide call, the
// fixed per-request cost of SLO-aware serving).
const defaultBench = "Benchmark(Ex[A-Z]|Oracle|SolveLarge|Family|Codec|Resolve|Planner)"

// pgoProfile is the committed profile-guided-optimization profile at the
// repository root; see the pgo target in the Makefile.
const pgoProfile = "default.pgo"

// tracked lists the hot-path benchmarks bench-compare gates on: the
// pattern-enumeration stage, the end-to-end EPTAS solves that dominate
// production cost, the speculative search, the three oracle backends on
// the DP-favoring few-patterns fixture, bnb and cfgdp on the m=256
// fixture's configuration program and the full m=256 solve
// (BenchmarkSolveLarge), one end-to-end solve per
// sibling problem family (related on the committed speed fixture,
// identical on the bimodal workload), the memo snapshot codec, the
// wire request decode and response encode at a small and a large
// instance, the three churn-trace replays (warm low/high churn plus the
// from-scratch baseline) and the adaptive planner's per-request
// decision overhead.
// Benchmarks outside this list still land in snapshots but never fail
// the comparison.
var tracked = []string{
	"BenchmarkExF1AdversarialEPTAS",
	"BenchmarkExL6PatternEnum_Eps050",
	"BenchmarkExL6PatternEnum_Eps040",
	"BenchmarkExL7PipelineWithRepairs",
	"BenchmarkExT2ScaleN080",
	"BenchmarkExS2SpeculationOn",
	"BenchmarkOracleBnB",
	"BenchmarkOracleCfgDP",
	"BenchmarkOraclePortfolio",
	"BenchmarkFamilyRelated",
	"BenchmarkFamilyIdentical",
	"BenchmarkOracleBnBLarge",
	"BenchmarkOracleCfgDPLarge",
	"BenchmarkSolveLarge",
	"BenchmarkCodecSnapshotExport",
	"BenchmarkCodecSnapshotImport",
	"BenchmarkCodecWireDecodeSolveRequest",
	"BenchmarkCodecWireDecodeSolveRequestLarge",
	"BenchmarkCodecWireEncodeSolveResult",
	"BenchmarkCodecWireEncodeSolveResultLarge",
	"BenchmarkResolveLowChurn",
	"BenchmarkResolveHighChurn",
	"BenchmarkResolveFromScratch",
	"BenchmarkPlannerDecision",
}

// Snapshot is the file format of one benchmark run.
type Snapshot struct {
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Bench     string   `json:"bench"`
	BenchTime string   `json:"benchtime"`
	PGO       bool     `json:"pgo,omitempty"`
	Results   []Result `json:"results"`
}

// Result is one benchmark line. The allocation fields are always present
// (-benchmem is always passed), so a genuine 0 B/op survives in the JSON
// and trajectory diffs can rely on the columns existing. CPU is the
// GOMAXPROCS suffix of the line (the -8 in "BenchmarkFoo-8"); 0 means
// the line carried none (GOMAXPROCS was 1).
type Result struct {
	Name     string  `json:"name"`
	CPU      int     `json:"cpu,omitempty"`
	Iters    int     `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   float64 `json:"b_per_op"`
	AllocsOp float64 `json:"allocs_per_op"`
}

// key is the identity a result is deduplicated and compared under.
func (r Result) key() string { return fmt.Sprintf("%s-%d", r.Name, r.CPU) }

// benchLine matches "BenchmarkName-8  10  123456 ns/op  78 B/op  9 allocs/op"
// (the -8 GOMAXPROCS suffix and the allocation columns are optional). A
// benchmark that calls b.SetBytes prints an MB/s column between ns/op
// and B/op, which is skipped.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(?:\s+[\d.]+ MB/s)?(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

// parseBenchLine parses one line of go test -bench output; ok is false
// for lines that are not benchmark results.
func parseBenchLine(line string) (r Result, ok bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Result{}, false
	}
	r.Name = m[1]
	r.Iters, _ = strconv.Atoi(m[3])
	r.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
	if m[2] != "" {
		r.CPU, _ = strconv.Atoi(m[2])
	}
	if m[5] != "" {
		r.BPerOp, _ = strconv.ParseFloat(m[5], 64)
	}
	if m[6] != "" {
		r.AllocsOp, _ = strconv.ParseFloat(m[6], 64)
	}
	return r, true
}

func main() {
	bench := flag.String("bench", defaultBench, "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value (1x = one iteration per benchmark)")
	count := flag.Int("count", 1, "go test -count value")
	out := flag.String("out", "", "output file (default BENCH_<date>.json)")
	compare := flag.Bool("compare", false, "compare a fresh run of the tracked benchmarks against the latest committed BENCH_*.json instead of writing a snapshot")
	threshold := flag.Float64("threshold", 1.25, "ns/op ratio above which -compare reports a regression")
	flag.Parse()

	var err error
	if *compare {
		err = runCompare(*benchtime, *count, *threshold)
	} else {
		err = run(*bench, *benchtime, *count, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runBench shells out to go test -bench and parses the result lines.
// With count > 1 the minimum ns/op per benchmark is kept (the most
// noise-resistant statistic for regression gating).
func runBench(bench, benchtime string, count int) ([]Result, error) {
	args := []string{"test",
		"-run", "^$",
		"-bench", bench,
		"-benchtime", benchtime,
		"-count", strconv.Itoa(count),
		"-benchmem",
	}
	// Build with the committed profile when one exists (make pgo
	// regenerates it), so snapshots and compares measure the binary that
	// production builds would ship. go's auto mode only applies
	// default.pgo to main packages, hence the explicit flag.
	if _, err := os.Stat(pgoProfile); err == nil {
		args = append(args, "-pgo="+pgoProfile)
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	best := make(map[string]Result)
	var order []string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		r, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		prev, seen := best[r.key()]
		if !seen {
			order = append(order, r.key())
			best[r.key()] = r
		} else if r.NsPerOp < prev.NsPerOp {
			best[r.key()] = r
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	results := make([]Result, 0, len(order))
	for _, k := range order {
		results = append(results, best[k])
	}
	return results, nil
}

func run(bench, benchtime string, count int, out string) error {
	date := time.Now().Format("2006-01-02")
	if out == "" {
		out = fmt.Sprintf("BENCH_%s.json", date)
	}
	results, err := runBench(bench, benchtime, count)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results matched %q", bench)
	}
	snap := Snapshot{
		Date:      date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Bench:     bench,
		BenchTime: benchtime,
		Results:   results,
	}
	if _, err := os.Stat(pgoProfile); err == nil {
		snap.PGO = true
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(snap)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("wrote %d results to %s\n", len(snap.Results), out)
	return nil
}

// latestSnapshot locates the newest committed BENCH_*.json by name (the
// date-stamped names sort chronologically).
func latestSnapshot() (string, *Snapshot, error) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		return "", nil, err
	}
	if len(files) == 0 {
		return "", nil, fmt.Errorf("no BENCH_*.json snapshot found; run benchjson (or make bench-json) first")
	}
	sort.Strings(files)
	path := files[len(files)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	return path, &snap, nil
}

// lookup resolves a benchmark name in a result set: its cpu-less entry
// (a line from a 1-core run) first, then — when it is the only entry
// under its name — that entry at any cpu, so benchmarks stay comparable
// across machines with different core counts.
func lookup(set map[string]Result, byName map[string][]Result, name string) (Result, bool) {
	if r, ok := set[Result{Name: name}.key()]; ok {
		return r, true
	}
	if rs := byName[name]; len(rs) == 1 {
		return rs[0], true
	}
	return Result{}, false
}

func index(results []Result) (map[string]Result, map[string][]Result) {
	set := make(map[string]Result, len(results))
	byName := make(map[string][]Result)
	for _, r := range results {
		set[r.key()] = r
		byName[r.Name] = append(byName[r.Name], r)
	}
	return set, byName
}

// runCompare diffs a fresh run of the tracked benchmarks against the
// latest committed snapshot and fails on a >threshold ns/op regression.
func runCompare(benchtime string, count int, threshold float64) error {
	path, base, err := latestSnapshot()
	if err != nil {
		return err
	}
	baseSet, baseByName := index(base.Results)

	fresh, err := runBench("^("+strings.Join(tracked, "|")+")$", benchtime, count)
	if err != nil {
		return err
	}
	curSet, curByName := index(fresh)

	fmt.Printf("\nbench-compare against %s (threshold %.0f%%):\n", path, (threshold-1)*100)
	var regressions []string
	for _, name := range tracked {
		old, okOld := lookup(baseSet, baseByName, name)
		now, okNow := lookup(curSet, curByName, name)
		switch {
		case !okNow:
			// A tracked benchmark that no longer runs is itself a
			// regression — this is how the gate notices rotted benchmarks.
			regressions = append(regressions, fmt.Sprintf("%s: missing from fresh run", name))
		case !okOld:
			fmt.Printf("  %-36s %12.0f ns/op (new, no baseline)\n", name, now.NsPerOp)
		default:
			ratio := now.NsPerOp / old.NsPerOp
			verdict := "ok"
			if ratio > threshold {
				verdict = "REGRESSION"
				regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%.2fx)", name, old.NsPerOp, now.NsPerOp, ratio))
			}
			fmt.Printf("  %-36s %12.0f -> %10.0f ns/op  %5.2fx  %s\n", name, old.NsPerOp, now.NsPerOp, ratio, verdict)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d tracked benchmark(s) regressed:\n  %s", len(regressions), strings.Join(regressions, "\n  "))
	}
	fmt.Println("no tracked regressions")
	return nil
}
