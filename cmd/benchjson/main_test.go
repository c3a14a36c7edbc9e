package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestTrackedBenchmarksDeclared parses the root package's test files and
// checks that every tracked benchmark is declared there and selected by
// defaultBench, so deleting or renaming a tracked benchmark fails the
// test suite instead of only the comparison report.
func TestTrackedBenchmarksDeclared(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files in the root package (%v)", err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				declared[fn.Name.Name] = true
			}
		}
	}
	selected := regexp.MustCompile(defaultBench)
	for _, name := range tracked {
		if !declared[name] {
			t.Errorf("tracked benchmark %s is not declared in the root package's tests", name)
		}
		if !selected.MatchString(name) {
			t.Errorf("tracked benchmark %s is not selected by defaultBench %q", name, defaultBench)
		}
	}
}

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line string
		want Result
	}{
		{
			"BenchmarkExB1Uniform_EPTAS-2   	      50	  23800000 ns/op	21800000 B/op	  151000 allocs/op",
			Result{Name: "BenchmarkExB1Uniform_EPTAS", CPU: 2, Iters: 50, NsPerOp: 23800000, BPerOp: 21800000, AllocsOp: 151000},
		},
		{
			// b.SetBytes adds an MB/s column between ns/op and B/op.
			"BenchmarkCodecWireDecodeSolveRequest-2        	     200	     35829 ns/op	  23.14 MB/s	    3384 B/op	      17 allocs/op",
			Result{Name: "BenchmarkCodecWireDecodeSolveRequest", CPU: 2, Iters: 200, NsPerOp: 35829, BPerOp: 3384, AllocsOp: 17},
		},
		{
			"BenchmarkPlannerDecision 	 1000000	      1042 ns/op",
			Result{Name: "BenchmarkPlannerDecision", Iters: 1000000, NsPerOp: 1042},
		},
		{
			// b.ReportMetric columns sit between ns/op and B/op.
			"BenchmarkGuessMetrics-2 	 3000000	       403.3 ns/op	         1.500 guesses/op	         0.7500 pipeline_runs/op	      64 B/op	       1 allocs/op",
			Result{Name: "BenchmarkGuessMetrics", CPU: 2, Iters: 3000000, NsPerOp: 403.3, BPerOp: 64, AllocsOp: 1,
				Metrics: map[string]float64{"guesses/op": 1.5, "pipeline_runs/op": 0.75}},
		},
	}
	for _, tc := range cases {
		got, ok := parseBenchLine(tc.line)
		if !ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseBenchLine(%q) = %+v, %v; want %+v", tc.line, got, ok, tc.want)
		}
	}
	for _, line := range []string{"PASS", "ok  	repro	12.3s", "goos: linux"} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine(%q) reported a result", line)
		}
	}
}
