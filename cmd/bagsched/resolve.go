package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	bagsched "repro"
	"repro/internal/sched"
)

// runResolve is the `bagsched resolve` subcommand: solve an instance,
// apply a delta, and re-solve incrementally, printing how much of the
// from-scratch work the warm start avoided. It is the command-line
// counterpart of POST /v1/resolve — the CLI is stateless between runs,
// so it performs the prior solve itself and chains the re-solve off it
// in-process (which also exercises the memo carry-over the service gets
// from its shared cache).
func runResolve(args []string) error {
	fs := flag.NewFlagSet("resolve", flag.ContinueOnError)
	eps := fs.Float64("eps", 0.5, "accuracy parameter")
	backendName := fs.String("backend", "bnb", "oracle backend: bnb or cfgdp")
	familyName := fs.String("family", "bags", "problem family: bags, identical or related")
	inPath := fs.String("in", "-", "prior instance JSON file, or - for stdin")
	deltaPath := fs.String("delta", "", "delta JSON file, or - for stdin (required; see the Delta grammar in the README)")
	outPath := fs.String("out", "", "write the post-delta schedule JSON here")
	repair := fs.Bool("repair", false, "enable the placement-repair fast path (certificate-checked, not bit-identical)")
	compare := fs.Bool("compare", false, "also solve the post-delta instance from scratch and verify bit-identity")
	timeout := fs.Duration("timeout", 0, "abort after this long (covers prior solve and re-solve; 0 = no limit)")
	verbose := fs.Bool("v", false, "print per-machine loads of the re-solved schedule")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *deltaPath == "" {
		return fmt.Errorf("-delta is required")
	}
	if *inPath == "-" && *deltaPath == "-" {
		return fmt.Errorf("-in and -delta cannot both read stdin")
	}

	backend, err := bagsched.ParseBackend(*backendName)
	if err != nil {
		return err
	}
	fam, err := bagsched.ParseFamily(*familyName)
	if err != nil {
		return err
	}

	in, err := readInstanceFile(*inPath)
	if err != nil {
		return err
	}
	delta, err := readDeltaFile(*deltaPath)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []bagsched.Option{bagsched.WithBackend(backend), bagsched.WithFamily(fam)}
	priorStart := time.Now()
	prior, err := bagsched.SolveEPTASContext(ctx, in, *eps, opts...)
	if err != nil {
		return fmt.Errorf("prior solve: %w", err)
	}
	priorElapsed := time.Since(priorStart)
	fmt.Printf("prior: makespan %.6f  guesses %d  pipeline runs %d  elapsed %s\n",
		prior.Makespan, prior.Stats.Guesses, prior.Stats.PipelineRuns, priorElapsed)

	var resolveOpts []bagsched.Option
	if *repair {
		resolveOpts = append(resolveOpts, bagsched.WithPlacementRepair())
	}
	warmStart := time.Now()
	res, err := bagsched.ResolveEPTASContext(ctx, prior, *delta, resolveOpts...)
	if err != nil {
		return fmt.Errorf("resolve: %w", err)
	}
	warmElapsed := time.Since(warmStart)

	fmt.Printf("delta: %d job edit(s), %+d machine(s)\n", delta.Jobs(), delta.Machines)
	fmt.Printf("resolved: makespan %.6f (%.2fx lower bound)  elapsed %s\n",
		res.Makespan, res.Makespan/res.LowerBound, warmElapsed)
	if res.Stats.Repaired {
		fmt.Printf("repaired: kept %d, moved %d, displaced %d job(s); no search ran\n",
			res.Stats.RepairStats.Kept, res.Stats.RepairStats.Moved, res.Stats.RepairStats.Displaced)
	} else {
		fmt.Printf("warm search: guesses %d  pipeline runs %d  cache hits %d\n",
			res.Stats.Guesses, res.Stats.PipelineRuns, res.Stats.CacheHits)
	}

	if *compare {
		post, _, err := delta.Apply(in)
		if err != nil {
			return err
		}
		coldStart := time.Now()
		cold, err := bagsched.SolveEPTASContext(ctx, post, *eps, opts...)
		if err != nil {
			return fmt.Errorf("from-scratch solve: %w", err)
		}
		coldElapsed := time.Since(coldStart)
		fmt.Printf("from scratch: makespan %.6f  guesses %d  pipeline runs %d  elapsed %s\n",
			cold.Makespan, cold.Stats.Guesses, cold.Stats.PipelineRuns, coldElapsed)
		switch {
		case res.Stats.Repaired:
			fmt.Printf("repair certificate: %.6f <= (1+%g) * %.6f\n", res.Makespan, *eps, res.LowerBound)
		case res.Makespan != cold.Makespan:
			return fmt.Errorf("incremental makespan %.17g differs from from-scratch %.17g", res.Makespan, cold.Makespan)
		default:
			fmt.Printf("bit-identical to from-scratch; warm elapsed %.2fx faster\n",
				coldElapsed.Seconds()/warmElapsed.Seconds())
		}
	}

	if err := res.Schedule.Validate(); err != nil {
		return fmt.Errorf("re-solved schedule is invalid: %w", err)
	}
	if *verbose {
		for m, load := range res.Schedule.Loads() {
			fmt.Printf("  machine %2d: load %.6f\n", m, load)
		}
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sched.WriteSchedule(f, res.Schedule); err != nil {
			return err
		}
		fmt.Printf("schedule written to %s\n", *outPath)
	}
	return nil
}

func readInstanceFile(path string) (*sched.Instance, error) {
	if path == "-" {
		return sched.ReadInstance(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sched.ReadInstance(f)
}

func readDeltaFile(path string) (*sched.Delta, error) {
	if path == "-" {
		return sched.ReadDelta(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sched.ReadDelta(f)
}
