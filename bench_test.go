package bagsched

// Benchmark harness: one benchmark per experiment of the EX suite defined
// by internal/experiments (the paper has no experimental tables of its
// own — these regenerate the synthetic evaluation), plus micro-benchmarks
// for every substrate the EPTAS depends on. Run with:
//
//	go test -bench=. -benchmem
import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/cfgmilp"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/greedy"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/oracle"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/round"
	"repro/internal/sched"
	"repro/internal/transform"
	"repro/internal/wire"
	"repro/internal/workload"
)

// --- EX-F1: Figure 1 adversarial family ---

func BenchmarkExF1AdversarialEPTAS(b *testing.B) {
	in := workload.MustGenerate(workload.Spec{Family: workload.Adversarial, Machines: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := SolveEPTAS(in, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Makespan
	}
}

// workCounters sums the deterministic work counters of a benchmark's
// solves and reports them per op next to the wall time.
type workCounters struct{ guesses, runs int }

func (w *workCounters) add(res *Result) {
	w.guesses += res.Stats.Guesses
	w.runs += res.Stats.PipelineRuns
}

func (w *workCounters) report(b *testing.B) {
	b.ReportMetric(float64(w.guesses)/float64(b.N), "guesses/op")
	b.ReportMetric(float64(w.runs)/float64(b.N), "pipeline_runs/op")
}

// --- EX-T1: quality per eps (cost of one full EPTAS solve) ---

func benchEPTASQuality(b *testing.B, eps float64) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 3, Jobs: 11, Bags: 4, Seed: 100,
	})
	var work workCounters
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := SolveEPTAS(in, eps)
		if err != nil {
			b.Fatal(err)
		}
		work.add(res)
	}
	work.report(b)
}

func BenchmarkExT1Quality_Eps075(b *testing.B) { benchEPTASQuality(b, 0.75) }
func BenchmarkExT1Quality_Eps050(b *testing.B) { benchEPTASQuality(b, 0.5) }
func BenchmarkExT1Quality_Eps033(b *testing.B) { benchEPTASQuality(b, 0.33) }

// --- EX-T2: runtime scaling in n and in the bag count ---

func benchEPTASSize(b *testing.B, n int) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: n / 5, Jobs: n, Bags: n / 4, Seed: 5,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveEPTAS(in, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExT2ScaleN020(b *testing.B) { benchEPTASSize(b, 20) }
func BenchmarkExT2ScaleN040(b *testing.B) { benchEPTASSize(b, 40) }
func BenchmarkExT2ScaleN080(b *testing.B) { benchEPTASSize(b, 80) }

func benchBags(b *testing.B, bags int, dasWiese bool) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 8, Jobs: 16, Bags: bags, Seed: 5,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if dasWiese {
			_, err = SolveDasWiese(in, 0.5)
		} else {
			_, err = SolveEPTAS(in, 0.5)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExT2Bags04_EPTAS(b *testing.B)    { benchBags(b, 4, false) }
func BenchmarkExT2Bags08_EPTAS(b *testing.B)    { benchBags(b, 8, false) }
func BenchmarkExT2Bags08_DasWiese(b *testing.B) { benchBags(b, 8, true) }

// --- EX-S1: batch solving throughput (sequential loop vs worker pool) ---

// BenchmarkExS1Batch16_Sequential is the baseline: a plain loop of
// sequential solves over the 16-instance bimodal fleet (bimodalBatch in
// batch_test.go). Compare its per-op wall-clock against
// BenchmarkExS1Batch16_Pool on a multi-core machine to see the pool's
// speedup; on one core the two coincide.
func BenchmarkExS1Batch16_Sequential(b *testing.B) {
	ins := bimodalBatch(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			if _, err := SolveEPTAS(in, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkExS1Batch16_Pool(b *testing.B) {
	ins := bimodalBatch(b, 16)
	pool := NewPool(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range pool.SolveEPTAS(ins, 0.5) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
	}
}

// --- EX-L6: pattern enumeration cost per eps ---

func benchPatternEnum(b *testing.B, eps float64) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 8, Jobs: 48, Bags: 10, Seed: 9,
	})
	ub, err := greedy.BagLPT(in)
	if err != nil {
		b.Fatal(err)
	}
	scaled, _ := round.ScaleRound(in, ub.Makespan(), eps)
	info, err := classify.Classify(scaled, eps, classify.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tr := transform.Apply(scaled, info)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := pattern.Enumerate(context.Background(), tr.Inst, tr.View, tr.Priority, pattern.Options{Limit: 2_000_000})
		if err != nil {
			b.Fatal(err)
		}
		_ = len(sp.Patterns)
	}
}

func BenchmarkExL6PatternEnum_Eps050(b *testing.B) { benchPatternEnum(b, 0.5) }
func BenchmarkExL6PatternEnum_Eps040(b *testing.B) { benchPatternEnum(b, 0.4) }

// --- EX-L8: bag-LPT primitive ---

func BenchmarkExL8BagLPT(b *testing.B) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.SmallHeavy, Machines: 64, Jobs: 2048, Bags: 64, Seed: 3,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := greedy.BagLPT(in)
		if err != nil {
			b.Fatal(err)
		}
		_ = s.Makespan()
	}
}

// --- EX-L7/L11: full pipeline with active transformation and repairs ---

func BenchmarkExL7PipelineWithRepairs(b *testing.B) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Skewed, Machines: 16, Jobs: 50, Bags: 25, Seed: 41,
	})
	ub, err := greedy.BagLPT(in)
	if err != nil {
		b.Fatal(err)
	}
	guess := ub.Makespan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunPipeline(in, guess, core.Options{Eps: 0.5, BPrimeOverride: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EX-B1: algorithm comparison per family ---

func benchAlgo(b *testing.B, fam workload.Family, algo string) {
	in := workload.MustGenerate(workload.Spec{
		Family: fam, Machines: 8, Jobs: 40, Bags: 10, Seed: 200,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		switch algo {
		case "eptas":
			_, err = SolveEPTAS(in, 0.5)
		case "baglpt":
			_, err = SolveBagLPT(in)
		case "greedy":
			_, err = SolveGreedy(in)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExB1Uniform_EPTAS(b *testing.B)    { benchAlgo(b, workload.Uniform, "eptas") }
func BenchmarkExB1Uniform_BagLPT(b *testing.B)   { benchAlgo(b, workload.Uniform, "baglpt") }
func BenchmarkExB1Bimodal_EPTAS(b *testing.B)    { benchAlgo(b, workload.Bimodal, "eptas") }
func BenchmarkExB1Bimodal_BagLPT(b *testing.B)   { benchAlgo(b, workload.Bimodal, "baglpt") }
func BenchmarkExB1SmallHeavy_EPTAS(b *testing.B) { benchAlgo(b, workload.SmallHeavy, "eptas") }
func BenchmarkExB1Geometric_Greedy(b *testing.B) { benchAlgo(b, workload.Geometric, "greedy") }

// --- EX-A1: MILP mode ablation ---

func benchMode(b *testing.B, mode MILPMode) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 4, Jobs: 16, Bags: 5, Seed: 300,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveEPTAS(in, 0.5, WithMode(mode), WithMILPNodes(4000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExA1ModeDecomposed(b *testing.B) { benchMode(b, ModeDecomposed) }
func BenchmarkExA1ModePaper(b *testing.B)      { benchMode(b, ModePaper) }

// --- EX-A2: rounding-heuristic ablation ---

func benchRounding(b *testing.B, disable bool) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Uniform, Machines: 7, Jobs: 35, Bags: 12, Seed: 401,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Solve(in, core.Options{
			Eps:  0.5,
			MILP: milp.Options{DisableRounding: disable},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Makespan
	}
}

func BenchmarkExA2RoundingOn(b *testing.B)  { benchRounding(b, false) }
func BenchmarkExA2RoundingOff(b *testing.B) { benchRounding(b, true) }

// --- substrate micro-benchmarks ---

func BenchmarkLPSolveDense(b *testing.B) {
	// A 30x60 LP with a transportation-like structure.
	build := func() *lp.Problem {
		p := lp.NewProblem()
		const rows, cols = 15, 60
		for v := 0; v < cols; v++ {
			p.AddVar(float64(v%7) - 3)
		}
		for r := 0; r < rows; r++ {
			var terms []lp.Term
			for v := r; v < cols; v += rows {
				terms = append(terms, lp.Term{Var: v, Coef: 1 + float64((r+v)%3)})
			}
			p.AddConstraint(terms, lp.LE, float64(10+r))
		}
		for v := 0; v < cols; v++ {
			p.AddConstraint([]lp.Term{{Var: v, Coef: 1}}, lp.LE, 4)
		}
		return p
	}
	prob := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := prob.Solve(lp.Options{})
		if err != nil || res.Status != lp.StatusOptimal {
			b.Fatalf("status %v err %v", res.Status, err)
		}
	}
}

func BenchmarkMILPKnapsack(b *testing.B) {
	build := func() *milp.Model {
		p := lp.NewProblem()
		n := 12
		ints := make([]int, n)
		var terms []lp.Term
		for i := 0; i < n; i++ {
			p.AddVar(-float64(1 + i%5))
			ints[i] = i
			terms = append(terms, lp.Term{Var: i, Coef: float64(1 + i%4)})
			p.AddConstraint([]lp.Term{{Var: i, Coef: 1}}, lp.LE, 1)
		}
		p.AddConstraint(terms, lp.LE, 9)
		return &milp.Model{Prob: p, Integer: ints}
	}
	m := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := milp.Solve(context.Background(), m, milp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxFlowDinic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Layered graph: 2+3*40 nodes.
		const layers, width = 3, 40
		g := flow.NewGraph(2 + layers*width)
		node := func(l, w int) int { return 2 + l*width + w }
		for w := 0; w < width; w++ {
			g.AddEdge(0, node(0, w), 3)
			g.AddEdge(node(layers-1, w), 1, 3)
		}
		for l := 0; l+1 < layers; l++ {
			for w := 0; w < width; w++ {
				g.AddEdge(node(l, w), node(l+1, w), 2)
				g.AddEdge(node(l, w), node(l+1, (w+1)%width), 2)
			}
		}
		if _, err := g.MaxFlow(0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSolverN12(b *testing.B) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Uniform, Machines: 3, Jobs: 12, Bags: 4, Seed: 1,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := baselines.Exact(in, baselines.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformApplyLift(b *testing.B) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Uniform, Machines: 16, Jobs: 64, Bags: 32, Seed: 2,
	})
	ub, err := greedy.BagLPT(in)
	if err != nil {
		b.Fatal(err)
	}
	scaled, _ := round.ScaleRound(in, ub.Makespan(), 0.5)
	info, err := classify.Classify(scaled, 0.5, classify.Options{BPrimeOverride: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := transform.Apply(scaled, info)
		sPrime, err := greedy.BagLPT(tr.Inst)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := tr.Lift(sPrime); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, fam := range workload.Families() {
			workload.MustGenerate(workload.Spec{
				Family: fam, Machines: 16, Jobs: 128, Bags: 32, Seed: int64(i),
			})
		}
	}
}

func BenchmarkScheduleConflictScan(b *testing.B) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Uniform, Machines: 32, Jobs: 1024, Bags: 64, Seed: 4,
	})
	s, err := greedy.BagLPT(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cs := s.Conflicts(); len(cs) != 0 {
			b.Fatal("unexpected conflicts")
		}
	}
}

// sanity check that the benchmark instances are as described.
func TestBenchmarkInstancesFeasible(t *testing.T) {
	specs := []workload.Spec{
		{Family: workload.Adversarial, Machines: 8},
		{Family: workload.Bimodal, Machines: 3, Jobs: 11, Bags: 4, Seed: 100},
		{Family: workload.Skewed, Machines: 16, Jobs: 50, Bags: 25, Seed: 41},
	}
	for _, spec := range specs {
		in := workload.MustGenerate(spec)
		if err := in.Feasible(); err != nil {
			t.Errorf("%s: %v", spec.Name(), err)
		}
	}
}

// --- Oracle backends: one IP-oracle solve per engine ---
//
// Both decide the identical feasible configuration program: the
// committed few-patterns fixture (testdata/fewpatterns_m12_n32.json —
// 12 machines, 32 jobs of two distinct sizes in 4 bags, a small pattern
// space) at its accepted bag-LPT guess, under the pipeline's default
// limits. This is the oracle seam in isolation, the stage the backends
// actually compete on. Tracked by cmd/benchjson.

// benchOracleModel builds the few-patterns configuration program once,
// as the pipeline would at the bag-LPT guess.
func benchOracleModel(b *testing.B) *cfgmilp.Built {
	return benchOracleModelFrom(b, "testdata/fewpatterns_m12_n32.json")
}

// benchOracleModelFrom builds the configuration program of a committed
// fixture at its accepted bag-LPT guess, as the pipeline would, with its
// MILP materialized so the oracle benchmarks time the solve alone.
func benchOracleModelFrom(b *testing.B, path string) *cfgmilp.Built {
	b.Helper()
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	in, err := sched.ReadInstance(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	ub, err := greedy.BagLPT(in)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := core.RunPipeline(in, ub.Makespan(), core.Options{Eps: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	built, err := cfgmilp.Build(context.Background(), pr.Transformed.Inst, pr.Transformed.View,
		pr.Transformed.Priority, pr.Space, cfgmilp.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := built.MILP(context.Background()); err != nil {
		b.Fatal(err)
	}
	return built
}

func benchOracleBackend(b *testing.B, kind oracle.Kind) {
	built := benchOracleModel(b)
	backend := oracle.For(kind)
	lim := oracle.Limits{MILP: milp.Options{MaxNodes: 500, StopAtFirst: true}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, _, err := backend.Solve(ctx, built, lim)
		if err != nil {
			b.Fatal(err)
		}
		_ = plan
	}
}

func BenchmarkOracleBnB(b *testing.B)   { benchOracleBackend(b, oracle.KindBnB) }
func BenchmarkOracleCfgDP(b *testing.B) { benchOracleBackend(b, oracle.KindCfgDP) }

// --- Large corpus: the m=256 bimodal fixture ---
//
// Its configuration program has 466 patterns, so every simplex solve in
// the branch-and-bound is expensive; the three benchmarks time bnb and
// cfgdp on that program and the full EPTAS solve around them.

// benchOracleLarge solves one prebuilt configuration program.
func benchOracleLarge(b *testing.B, path string, kind oracle.Kind) {
	built := benchOracleModelFrom(b, path)
	backend := oracle.For(kind)
	lim := oracle.Limits{MILP: milp.Options{MaxNodes: 500, StopAtFirst: true}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, _, err := backend.Solve(ctx, built, lim)
		if err != nil {
			b.Fatal(err)
		}
		_ = plan
	}
}

func BenchmarkOracleBnBLarge(b *testing.B) {
	benchOracleLarge(b, "testdata/large_bimodal_m256_n384.json", oracle.KindBnB)
}

func BenchmarkOracleCfgDPLarge(b *testing.B) {
	benchOracleLarge(b, "testdata/large_bimodal_m256_n384.json", oracle.KindCfgDP)
}

// BenchmarkSolveLarge is the end-to-end view: a full sequential EPTAS
// solve of the large bimodal fixture.
func BenchmarkSolveLarge(b *testing.B) {
	f, err := os.Open("testdata/large_bimodal_m256_n384.json")
	if err != nil {
		b.Fatal(err)
	}
	in, err := sched.ReadInstance(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	var work workCounters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveEPTAS(in, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		work.add(res)
	}
	work.report(b)
}

// --- Problem families: one full solve per sibling family ---
//
// Tracked by cmd/benchjson. BenchmarkFamilyRelated runs the
// speed-scaled pipeline end-to-end on the committed relatedfew fixture;
// BenchmarkFamilyIdentical runs the same engine on a bag-free workload
// through the identical family (the singleton-bag degenerate). Compare
// against BenchmarkExT1Quality_Eps050 to see what the family seam
// itself costs the bags path: nothing — bags solves are bit-identical
// to pre-seam (TestFamilyBagsBitIdentical).

func BenchmarkFamilyRelated(b *testing.B) {
	f, err := os.Open("testdata/related_few_m6_n20.json")
	if err != nil {
		b.Fatal(err)
	}
	in, err := sched.ReadInstance(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	var work workCounters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveEPTAS(in, 0.5, WithFamily(FamilyRelated))
		if err != nil {
			b.Fatal(err)
		}
		work.add(res)
	}
	work.report(b)
}

func BenchmarkFamilyIdentical(b *testing.B) {
	in := workload.MustGenerate(workload.Spec{
		Family: workload.Bimodal, Machines: 3, Jobs: 11, Bags: 4, Seed: 100,
	})
	var work workCounters
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := SolveEPTAS(in, 0.5, WithFamily(FamilyIdentical))
		if err != nil {
			b.Fatal(err)
		}
		work.add(res)
	}
	work.report(b)
}

// --- Codec benchmarks: the shippable memo tier and the wire documents ---

// benchSnapshotCache populates one shared cache with cold solves of a
// few committed fixtures — the donor a replica would snapshot on
// shutdown.
func benchSnapshotCache(b *testing.B) *Cache {
	b.Helper()
	cache := NewCache(64 << 20)
	for _, name := range []string{
		"testdata/adversarial_m8_n24.json",
		"testdata/bimodal_m6_n24.json",
		"testdata/fewpatterns_m12_n32.json",
	} {
		f, err := os.Open(name)
		if err != nil {
			b.Fatal(err)
		}
		in, err := sched.ReadInstance(f)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := SolveEPTAS(in, 0.5, WithSharedCache(cache)); err != nil {
			b.Fatal(err)
		}
	}
	return cache
}

func BenchmarkCodecSnapshotExport(b *testing.B) {
	cache := benchSnapshotCache(b)
	var buf bytes.Buffer
	if _, err := ExportCacheSnapshot(cache, &buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExportCacheSnapshot(cache, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecSnapshotImport(b *testing.B) {
	cache := benchSnapshotCache(b)
	var buf bytes.Buffer
	if _, err := ExportCacheSnapshot(cache, &buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := NewCache(64 << 20)
		if _, err := ImportCacheSnapshot(fresh, bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecWireDecodeSolveRequest(b *testing.B) {
	benchWireDecode(b, "testdata/adversarial_m8_n24.json", "bags")
}

// BenchmarkCodecWireDecodeSolveRequestLarge decodes a body the size of
// the largest warm-serving requests (m=192, n=288 related machines),
// where the instance decode, not the request envelope, dominates.
func BenchmarkCodecWireDecodeSolveRequestLarge(b *testing.B) {
	benchWireDecode(b, "testdata/large_related_m192_n288.json", "related")
}

// benchWireDecode measures the strict wire decode of a /v1/solve body
// carrying the instance at path.
func benchWireDecode(b *testing.B, path, family string) {
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	in, err := sched.ReadInstance(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(wire.SolveRequest{Instance: in, SolveSpec: wire.SolveSpec{Eps: 0.5, Family: family}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req wire.SolveRequest
		if err := wire.Unmarshal(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecWireEncodeSolveResult(b *testing.B) {
	benchWireEncode(b, "testdata/adversarial_m8_n24.json", FamilyBags)
}

// BenchmarkCodecWireEncodeSolveResultLarge encodes the answer to the
// largest warm-serving request of the decode benchmark (m=192, n=288
// related machines): 288 assignments and 192 machine loads.
func BenchmarkCodecWireEncodeSolveResultLarge(b *testing.B) {
	benchWireEncode(b, "testdata/large_related_m192_n288.json", FamilyRelated)
}

// benchWireEncode measures the response encoding of the solved instance
// at path into a reused buffer, as the server encodes every answer.
func benchWireEncode(b *testing.B, path string, fam Family) {
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	in, err := sched.ReadInstance(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	res, err := SolveEPTAS(in, 0.5, WithFamily(fam))
	if err != nil {
		b.Fatal(err)
	}
	doc := wire.FromResult(res, false, 1500*time.Microsecond)
	var buf bytes.Buffer
	if err := wire.Encode(&buf, doc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wire.Encode(&buf, doc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Incremental re-solve: churn-trace replay ---
//
// The Resolve benchmarks replay the committed churn traces
// (testdata/churn_*.json, pinned by TestFixtureShapes). The warm pair
// measures a full trace replay through ResolveEPTAS — seeded binary
// search plus cross-guess memo reuse chained step to step — while
// FromScratch replays the same low-churn trace through cold SolveEPTAS
// calls on each post-delta instance, the baseline the warm path is
// contractually bit-identical to (see resolve_diff_test.go).

// benchTrace loads a committed churn trace and precomputes the prior
// solve of the base plus every post-delta instance, so the timed loops
// measure only the replay.
func benchTrace(b *testing.B, name string) (*Result, []sched.Delta, []*Instance) {
	b.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sched.ReadTrace(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	prior, err := SolveEPTAS(tr.Base, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	posts := make([]*Instance, len(tr.Steps))
	cur := tr.Base
	for i, d := range tr.Steps {
		post, _, err := d.Apply(cur)
		if err != nil {
			b.Fatal(err)
		}
		posts[i], cur = post, post
	}
	return prior, tr.Steps, posts
}

func benchResolveReplay(b *testing.B, name string) {
	base, steps, _ := benchTrace(b, name)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prior := base
		for _, d := range steps {
			res, err := ResolveEPTAS(prior, d)
			if err != nil {
				b.Fatal(err)
			}
			prior = res
		}
	}
}

func BenchmarkResolveLowChurn(b *testing.B) {
	benchResolveReplay(b, "churn_low_m6_n24.json")
}

func BenchmarkResolveHighChurn(b *testing.B) {
	benchResolveReplay(b, "churn_high_m8_n24.json")
}

func BenchmarkResolveFromScratch(b *testing.B) {
	_, _, posts := benchTrace(b, "churn_low_m6_n24.json")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, post := range posts {
			if _, err := SolveEPTAS(post, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Adaptive solving: admission-time planner overhead ---
//
// BenchmarkPlannerDecision measures one plan.Decide call against a
// trained cost model — the per-request overhead every adaptive solve
// pays at admission, which the SLO replay reports as "planner p50".

func BenchmarkPlannerDecision(b *testing.B) {
	m := NewPlanModel()
	for _, o := range []struct {
		eps float64
		d   time.Duration
	}{
		{0.1, 800 * time.Millisecond},
		{0.2, 200 * time.Millisecond},
		{0.3, 80 * time.Millisecond},
		{0.5, 20 * time.Millisecond},
		{0.9, 5 * time.Millisecond},
	} {
		m.Observe(plan.Key{Family: "bags", Size: plan.SizeClass(24), Rung: plan.RungEPTAS,
			EpsIdx: plan.EpsIndex(o.eps), Backend: "bnb"}, o.d)
	}
	m.Observe(plan.Key{Family: "bags", Size: plan.SizeClass(24), Rung: plan.RungLPT}, 300*time.Microsecond)
	req := plan.Request{Family: "bags", Jobs: 24, Machines: 8, Eps: 0.1,
		Backend: "bnb", Budget: 150 * time.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Decide(req); err != nil {
			b.Fatal(err)
		}
	}
}
