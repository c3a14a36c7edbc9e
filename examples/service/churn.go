package main

// Churn-replay mode (-churn): the incremental re-solve load driver.
//
// Where the default mode replays a static corpus to profile the shared
// cache, this mode replays churn traces (testdata/churn_*.json — a base
// instance plus a stream of deltas, see sched.Trace) the way a dynamic
// workload would consume the service: solve the base once, then on
// every delta issue
//
//   - one POST /v1/resolve carrying the prior solve's facts (makespan,
//     final accepted guess, and with -churn-repair the assignment) — the
//     incremental path: warm-started search plus the server's shared
//     memo; and
//   - one POST /v1/solve of the post-delta instance with the cache
//     bypassed — the from-scratch baseline the incremental answer must
//     match bit for bit.
//
// The driver checks that identity on every non-repaired step, then
// reports warm-vs-cold p50/p99 over the server-measured solve times and
// ends with a PASS/FAIL line: low-churn traces (at most ~10% of jobs
// edited per step) must clear the -resolve-speedup ratio (default 5x,
// the incremental-serving acceptance bar); higher-churn traces report
// their ratio for the record without gating.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/sched"
)

// resolveReply is the slice of a /v1/resolve (or /v1/solve) response
// the replay consumes.
type resolveReply struct {
	Makespan   float64 `json:"makespan"`
	FinalGuess float64 `json:"final_guess"`
	Assignment []int   `json:"assignment"`
	Guesses    int     `json:"guesses"`
	Repaired   bool    `json:"repaired"`
	ElapsedUS  int64   `json:"elapsed_us"`
	Error      string  `json:"error"`
}

// lowChurnFrac is the per-step edit fraction below which a trace counts
// as low churn and gates the speedup threshold.
const lowChurnFrac = 0.10 + 1e-9

func runChurn(addr, path string, passes int, eps float64, backend string, repair bool, speedup float64) error {
	traces, err := churnTraces(path)
	if err != nil {
		return err
	}
	if err := waitHealthy(addr); err != nil {
		return err
	}
	fmt.Printf("churn-replaying %d trace(s) against %s (%d passes, eps %g, repair %v)\n",
		len(traces), addr, passes, eps, repair)
	failed := false
	for _, tp := range traces {
		ok, err := replayChurnTrace(addr, tp, passes, eps, backend, repair, speedup)
		if err != nil {
			return fmt.Errorf("%s: %w", filepath.Base(tp), err)
		}
		if !ok {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("incremental speedup below %.1fx on a low-churn trace", speedup)
	}
	return nil
}

// churnTraces resolves -churn: a trace file replays alone, a directory
// replays every churn_*.json under it.
func churnTraces(path string) ([]string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return []string{path}, nil
	}
	files, err := filepath.Glob(filepath.Join(path, "churn_*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no churn_*.json traces in %s", path)
	}
	sort.Strings(files)
	return files, nil
}

func replayChurnTrace(addr, path string, passes int, eps float64, backend string, repair bool, speedup float64) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	tr, err := sched.ReadTrace(f)
	f.Close()
	if err != nil {
		return false, err
	}
	frac := churnFrac(tr)
	fmt.Printf("%s: %d steps over m=%d n=%d (avg churn %.0f%% of jobs per step)\n",
		filepath.Base(path), len(tr.Steps), tr.Base.Machines, len(tr.Base.Jobs), 100*frac)

	var warm, cold []int64
	var repaired int
	var firstPass []float64
	for pass := 1; pass <= passes; pass++ {
		// Solve the base through the normal cached path: its response
		// seeds the prior-facts chain, and its per-guess memo entries are
		// what the incremental steps reuse server-side.
		prior, err := postJSON(addr+"/v1/solve", map[string]any{
			"instance": tr.Base, "eps": eps, "backend": backend,
		})
		if err != nil {
			return false, fmt.Errorf("base solve: %w", err)
		}
		cur := tr.Base
		var makespans []float64
		for i, d := range tr.Steps {
			post, _, err := d.Apply(cur)
			if err != nil {
				return false, fmt.Errorf("step %d does not apply: %w", i, err)
			}
			req := map[string]any{
				"instance": cur, "delta": d, "eps": eps, "backend": backend,
				"prior_makespan": prior.Makespan, "prior_guess": prior.FinalGuess,
			}
			if repair {
				req["repair"] = true
				req["prior_assignment"] = prior.Assignment
			}
			res, err := postJSON(addr+"/v1/resolve", req)
			if err != nil {
				return false, fmt.Errorf("step %d: resolve: %w", i, err)
			}
			// The baseline bypasses the shared cache entirely: the cost
			// of solving the post-delta instance with no prior knowledge.
			scratch, err := postJSON(addr+"/v1/solve", map[string]any{
				"instance": post, "eps": eps, "backend": backend, "no_cache": true,
			})
			if err != nil {
				return false, fmt.Errorf("step %d: from-scratch: %w", i, err)
			}
			if res.Repaired {
				repaired++
			} else if res.Makespan != scratch.Makespan {
				return false, fmt.Errorf("step %d: incremental makespan %.17g differs from from-scratch %.17g — resolve must be bit-identical",
					i, res.Makespan, scratch.Makespan)
			}
			warm = append(warm, res.ElapsedUS)
			cold = append(cold, scratch.ElapsedUS)
			makespans = append(makespans, res.Makespan)
			prior, cur = res, post
		}
		if pass == 1 {
			firstPass = makespans
		} else {
			for i := range makespans {
				if makespans[i] != firstPass[i] {
					return false, fmt.Errorf("pass %d step %d: makespan %.17g differs from pass 1's %.17g — replay must be deterministic",
						pass, i, makespans[i], firstPass[i])
				}
			}
		}
	}

	w50, w99 := percentiles(warm)
	c50, c99 := percentiles(cold)
	fmt.Printf("  incremental   p50 %s  p99 %s  (%d samples, %d repaired)\n",
		us(w50), us(w99), len(warm), repaired)
	fmt.Printf("  from-scratch  p50 %s  p99 %s  (%d samples)\n", us(c50), us(c99), len(cold))
	ratio := float64(c50) / float64(max64(w50, 1))
	if frac > lowChurnFrac {
		fmt.Printf("  speedup %.1fx (high-churn trace: reported, not gated)\n", ratio)
		return true, nil
	}
	verdict := "PASS"
	if ratio < speedup {
		verdict = "FAIL"
	}
	fmt.Printf("  speedup %.1fx (threshold %.1fx at <=10%% churn): %s\n", ratio, speedup, verdict)
	return verdict == "PASS", nil
}

// churnFrac is the average fraction of jobs a step edits, the knob the
// speedup gate keys on.
func churnFrac(tr *sched.Trace) float64 {
	cur := tr.Base
	var sum float64
	for _, d := range tr.Steps {
		edits := len(d.Add) + len(d.Remove) + len(d.Resize) + len(d.Rebag)
		sum += float64(edits) / float64(len(cur.Jobs))
		post, _, err := d.Apply(cur)
		if err != nil {
			break // replay reports the real error with its step index
		}
		cur = post
	}
	return sum / float64(len(tr.Steps))
}

func postJSON(url string, body map[string]any) (*resolveReply, error) {
	if body["backend"] == "" {
		delete(body, "backend")
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var reply resolveReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, reply.Error)
	}
	return &reply, nil
}

// percentiles returns the p50 and p99 of samples (0,0 when empty).
func percentiles(samples []int64) (p50, p99 int64) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2], s[(len(s)*99)/100]
}
