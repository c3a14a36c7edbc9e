// Command experiments regenerates the EX evaluation tables defined by
// internal/experiments — one experiment per theorem, lemma and figure of
// the paper.
//
// Usage:
//
//	experiments [-ex all|F1|F2|F3|T1|T2|L1|L6|L7|L8|L9|L11|B1|A1|A2] [-quick] [-seeds N]
//
// Output is GitHub-flavoured markdown on stdout, suitable for pasting
// into EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	ex := flag.String("ex", "all", "experiment id to run, or 'all'")
	quick := flag.Bool("quick", false, "smaller instances and fewer seeds")
	seeds := flag.Int("seeds", 0, "override the number of seeds per cell")
	flag.Parse()

	cfg := experiments.Config{Quick: *quick, Seeds: *seeds}
	ids := experiments.IDs()
	if *ex != "all" {
		ids = strings.Split(*ex, ",")
	}
	failed := 0
	for _, id := range ids {
		start := time.Now()
		table, err := experiments.Run(strings.TrimSpace(id), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(table.Markdown())
		fmt.Printf("_(generated in %.1fs)_\n\n", time.Since(start).Seconds())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
