package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// shape is a workload's predicted split and the test of whether it
// held. solver holds every workload's solver-stage share.
type shape struct {
	prediction string
	held       func(sum *summary, share func(rows ...string) float64, solver map[string]float64) bool
}

var (
	frontRows  = []string{"http.transport", "server.front", "core.self", "round.scale"}
	solverRows = []string{"classify.classify", "transform.transform", "pattern.enumerate", "oracle.solve", "placer.place"}
)

var shapes = map[string]shape{
	"cold-solve": {
		"the solver stages (oracle, enumeration, placement, classification, transformation) take most of the time",
		func(_ *summary, share func(...string) float64, _ map[string]float64) bool {
			return share(solverRows...) > 0.5
		},
	},
	"warm-zipf": {
		"transport, server front end, codec and core prep take about 95% of the busy time; the oracle takes none",
		func(_ *summary, share func(...string) float64, _ map[string]float64) bool {
			busy := share(frontRows...) + share(solverRows...)
			return busy > 0 && share(frontRows...)/busy >= 0.9 && share("oracle.solve") < 0.01
		},
	},
	"churn-resolve": {
		"memo reads of unchanged signatures sit beside writes of new ones (hit ratio between 0.05 and 0.95), and the solver share lies between warm-zipf's and cold-solve's",
		func(sum *summary, _ func(...string) float64, solver map[string]float64) bool {
			h, c := sum.Layers["memo.hit_ratio"], solver["churn-resolve"]
			return h > 0.05 && h < 0.95 && solver["warm-zipf"] < c && c < solver["cold-solve"]
		},
	},
}

// writeTable renders the "where the time goes" table from the traced
// runs' summaries in dir.
func writeTable(dir, path string) error {
	var sums []*summary
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join(dir, "layers-"+w.name+".json"))
		if err != nil {
			return fmt.Errorf("%w (run the traced run of every workload first)", err)
		}
		var s summary
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		sums = append(sums, &s)
	}
	share := func(s *summary, rows ...string) float64 {
		var t float64
		for _, r := range rows {
			t += s.SelfUS[r]
		}
		return t / s.TracedMeanUS
	}
	solver := map[string]float64{}
	for _, s := range sums {
		solver[s.Workload] = share(s, solverRows...)
	}

	var b strings.Builder
	b.WriteString("# Where the time goes\n\n")
	b.WriteString("Generated by `bash perfbench/run.sh --table` from the traced run (`--trace 1`)\n")
	b.WriteString("of each workload. Each row is a layer's self time: the mean microseconds per\n")
	b.WriteString("request spent in that layer and not in a layer below it, and its share of\n")
	b.WriteString("the traced mean end-to-end latency. A measured row comes from spans of one\n")
	b.WriteString("request: its HTTP spans, or the in-process replay of its body that the same\n")
	b.WriteString("client ran right after the answer. A row within another is part of that\n")
	b.WriteString("row's time. `batch.wait` is derived: the server's solve window minus the\n")
	b.WriteString("replay's solve. It is the part of the traced mean that no measured row\n")
	b.WriteString("explains, and the split passes its check when it, every negative row, and\n")
	b.WriteString("the rows within a row beyond that row's own time, stay within the tracing\n")
	b.WriteString("overhead.\n\n")
	b.WriteString("| layer | kind |")
	for _, s := range sums {
		fmt.Fprintf(&b, " %s µs | share |", s.Workload)
	}
	b.WriteString("\n|---|---|")
	b.WriteString(strings.Repeat("---:|---:|", len(sums)))
	b.WriteString("\n")
	for _, row := range selfRows {
		name := row.name
		if row.within != "" {
			name = "↳ " + name
		}
		fmt.Fprintf(&b, "| %s | %s |", name, row.kind())
		for _, s := range sums {
			fmt.Fprintf(&b, " %.1f | %.1f%% |", s.SelfUS[row.name], 100*share(s, row.name))
		}
		b.WriteString("\n")
	}
	b.WriteString("| **measured top-level rows** | |")
	for _, s := range sums {
		fmt.Fprintf(&b, " %.1f | %.1f%% |", s.MeasuredUS, 100*s.MeasuredUS/s.TracedMeanUS)
	}
	b.WriteString("\n| **unexplained** (traced mean − measured rows) | |")
	for _, s := range sums {
		fmt.Fprintf(&b, " %.1f | %.1f%% |", s.TracedMeanUS-s.MeasuredUS, s.Layers["trace.unexplained_pct"])
	}
	b.WriteString("\n| traced mean latency | |")
	for _, s := range sums {
		fmt.Fprintf(&b, " %.1f | |", s.TracedMeanUS)
	}
	b.WriteString("\n| untraced requests of the traced pass | |")
	for _, s := range sums {
		fmt.Fprintf(&b, " %.1f | |", s.PlainMeanUS)
	}
	b.WriteString("\n| untraced pass | |")
	for _, s := range sums {
		fmt.Fprintf(&b, " %.1f | |", s.BaseMeanUS)
	}
	b.WriteString("\n| trace.overhead_pct ± standard error | |")
	for _, s := range sums {
		fmt.Fprintf(&b, " %.1f%% ± %.1f%% | |", s.Layers["trace.overhead_pct"], s.OverheadSEPct)
	}
	b.WriteString("\n\n## Checks of the split\n\n")
	for _, s := range sums {
		if len(s.Flags) == 0 {
			fmt.Fprintf(&b, "- **%s**: passed; the unexplained share (%.1f%%) and every negative row stay within the tracing overhead (%.1f%%).\n",
				s.Workload, s.Layers["trace.unexplained_pct"], math.Abs(s.Layers["trace.overhead_pct"]))
			continue
		}
		fmt.Fprintf(&b, "- **%s**: failed; %s.\n", s.Workload, strings.Join(s.Flags, "; "))
	}
	b.WriteString("\n## Predicted shape\n\n")
	for _, s := range sums {
		sh := shapes[s.Workload]
		verdict := "did not hold"
		if sh.held(s, func(rows ...string) float64 { return share(s, rows...) }, solver) {
			verdict = "held"
		}
		fmt.Fprintf(&b, "- **%s** (%d requests, seed %d, %gs): predicted that %s. This %s: front end %.1f%%, solver stages %.1f%%, queue wait %.1f%%, memo hit ratio %.3f.\n",
			s.Workload, s.Requests, s.Seed, s.Seconds, sh.prediction, verdict,
			100*share(s, frontRows...), 100*solver[s.Workload], 100*share(s, "batch.wait"), s.Layers["memo.hit_ratio"])
	}
	f := sums[0].Facts
	fmt.Fprintf(&b, "\nMachine: %s, nproc %d, GOMAXPROCS %d; %s, PGO %s; commit %s.\n", f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.PGO, f.Commit)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
