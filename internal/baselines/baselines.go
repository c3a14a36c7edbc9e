// Package baselines provides the comparison algorithms the experiment
// suite measures the EPTAS against:
//
//   - Greedy: least-loaded feasible list scheduling in input order;
//   - LPT: the same in decreasing size order (Graham's rule with bags);
//   - BagLPT: the paper's bag-LPT applied globally (Lemma 8);
//   - RoundRobin: a static cyclic-shift assignment (conflict-free by
//     construction, load-oblivious — the naive strawman);
//   - DasWieseConfig: the configuration program with every bag treated as
//     priority and no instance transformation — the PTAS-style approach
//     whose cost grows with the number of bags (EX-T2);
//   - Exact: a branch-and-bound optimal solver used as the OPT oracle on
//     small instances (EX-T1).
package baselines

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/sched"
)

// Greedy schedules jobs in input order on the least-loaded conflict-free
// machine.
func Greedy(in *sched.Instance) (*sched.Schedule, error) {
	if err := in.Feasible(); err != nil {
		return nil, err
	}
	order := make([]int, len(in.Jobs))
	for i := range order {
		order[i] = i
	}
	return greedy.ListSchedule(in, order)
}

// LPT schedules jobs in decreasing size order on the least-loaded
// conflict-free machine.
func LPT(in *sched.Instance) (*sched.Schedule, error) {
	if err := in.Feasible(); err != nil {
		return nil, err
	}
	return greedy.ListSchedule(in, in.SortedJobIdxDesc())
}

// BagLPT is the paper's bag-LPT heuristic applied globally.
func BagLPT(in *sched.Instance) (*sched.Schedule, error) {
	return greedy.BagLPT(in)
}

// RoundRobin assigns the j-th job of each bag to machine (offset+j) mod m
// with a rotating offset. It is conflict-free whenever every bag has at
// most m jobs, but ignores loads entirely.
func RoundRobin(in *sched.Instance) (*sched.Schedule, error) {
	if err := in.Feasible(); err != nil {
		return nil, err
	}
	s := sched.NewSchedule(in)
	byBag := in.JobsByBag()
	offset := 0
	for b := 0; b < in.NumBags; b++ {
		jobs := append([]int(nil), byBag[b]...)
		sort.SliceStable(jobs, func(a, c int) bool {
			if in.Jobs[jobs[a]].Size != in.Jobs[jobs[c]].Size {
				return in.Jobs[jobs[a]].Size > in.Jobs[jobs[c]].Size
			}
			return jobs[a] < jobs[c]
		})
		for j, ji := range jobs {
			s.Machine[ji] = (offset + j) % in.Machines
		}
		offset = (offset + len(jobs)) % in.Machines
	}
	return s, nil
}

// DasWieseConfig runs the configuration-program scheme with every bag
// treated as a priority bag and no instance transformation. Its pattern
// space grows with the number of bags, reproducing the PTAS-vs-EPTAS
// running-time separation of the paper. It runs the EPTAS's own
// sequential guess search, so its timing compares directly with the
// EPTAS timing experiments and benchmarks.
func DasWieseConfig(in *sched.Instance, eps float64) (*core.Result, error) {
	return DasWieseConfigContext(context.Background(), in, eps)
}

// DasWieseConfigContext is DasWieseConfig under a context; a canceled or
// expired context aborts the solve and returns ctx.Err().
func DasWieseConfigContext(ctx context.Context, in *sched.Instance, eps float64) (*core.Result, error) {
	return core.SolveContext(ctx, in, core.Options{Eps: eps, AllPriority: true})
}

// ExactOptions tunes the exact solver.
type ExactOptions struct {
	// TimeLimit aborts the search; the best incumbent is returned with
	// Proven=false. Zero means 30 seconds.
	TimeLimit time.Duration
	// MaxNodes bounds search nodes. Zero means 50 million.
	MaxNodes int64
}

// ExactResult is the outcome of Exact.
type ExactResult struct {
	// Schedule is the best schedule found.
	Schedule *sched.Schedule
	// Makespan is its makespan.
	Makespan float64
	// Proven reports whether optimality was proven.
	Proven bool
	// Nodes is the number of search nodes expanded.
	Nodes int64
}

// Exact computes an optimal schedule by branch and bound over job
// assignments (jobs in decreasing size order, machine-symmetry breaking,
// area and incumbent pruning). Intended for small instances (n <~ 24).
func Exact(in *sched.Instance, opt ExactOptions) (*ExactResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := in.Feasible(); err != nil {
		return nil, err
	}
	if opt.TimeLimit <= 0 {
		opt.TimeLimit = 30 * time.Second
	}
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 50_000_000
	}
	// Start from the best heuristic schedule as incumbent.
	best, err := bestHeuristic(in)
	if err != nil {
		return nil, err
	}
	e := &exactSearch{
		in:       in,
		order:    in.SortedJobIdxDesc(),
		loads:    make([]float64, in.Machines),
		bagOn:    make([]map[int]bool, in.Machines),
		assign:   make([]int, len(in.Jobs)),
		bestAsg:  append([]int(nil), best.Machine...),
		bestMk:   best.Makespan(),
		deadline: time.Now().Add(opt.TimeLimit),
		maxNodes: opt.MaxNodes,
	}
	for i := range e.bagOn {
		e.bagOn[i] = make(map[int]bool)
	}
	for i := range e.assign {
		e.assign[i] = -1
	}
	// Suffix areas for the area lower bound.
	e.suffix = make([]float64, len(e.order)+1)
	for i := len(e.order) - 1; i >= 0; i-- {
		e.suffix[i] = e.suffix[i+1] + in.Jobs[e.order[i]].Size
	}
	complete := e.dfs(0, 0)
	s := &sched.Schedule{Inst: in, Machine: e.bestAsg}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("baselines: exact produced invalid schedule: %w", err)
	}
	return &ExactResult{Schedule: s, Makespan: s.Makespan(), Proven: complete, Nodes: e.nodes}, nil
}

// bestHeuristic returns the best of the cheap heuristics as an incumbent.
func bestHeuristic(in *sched.Instance) (*sched.Schedule, error) {
	var best *sched.Schedule
	for _, f := range []func(*sched.Instance) (*sched.Schedule, error){BagLPT, LPT, Greedy} {
		s, err := f(in)
		if err != nil {
			return nil, err
		}
		if best == nil || s.Makespan() < best.Makespan() {
			best = s
		}
	}
	return best, nil
}

type exactSearch struct {
	in       *sched.Instance
	order    []int
	loads    []float64
	bagOn    []map[int]bool
	assign   []int
	suffix   []float64
	bestAsg  []int
	bestMk   float64
	nodes    int64
	maxNodes int64
	deadline time.Time
	aborted  bool
}

// dfs returns true when the subtree was fully explored.
func (e *exactSearch) dfs(depth, usedMachines int) bool {
	if e.aborted {
		return false
	}
	e.nodes++
	if e.nodes >= e.maxNodes || (e.nodes%4096 == 0 && time.Now().After(e.deadline)) {
		e.aborted = true
		return false
	}
	if depth == len(e.order) {
		mk := 0.0
		for _, l := range e.loads {
			if l > mk {
				mk = l
			}
		}
		if mk < e.bestMk-1e-12 {
			e.bestMk = mk
			for i, ji := range e.order {
				_ = i
				e.bestAsg[ji] = e.assign[ji]
			}
		}
		return true
	}
	// Area lower bound: remaining jobs spread over all machines.
	maxLoad, totalLoad := 0.0, 0.0
	for _, l := range e.loads {
		if l > maxLoad {
			maxLoad = l
		}
		totalLoad += l
	}
	lbArea := (totalLoad + e.suffix[depth]) / float64(e.in.Machines)
	lb := math.Max(maxLoad, lbArea)
	if lb >= e.bestMk-1e-12 {
		return true
	}

	ji := e.order[depth]
	job := e.in.Jobs[ji]
	limit := usedMachines + 1 // machine symmetry breaking
	if limit > e.in.Machines {
		limit = e.in.Machines
	}
	complete := true
	// Try machines in increasing load order for better incumbents early.
	idx := make([]int, limit)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return e.loads[idx[a]] < e.loads[idx[b]] })
	for _, m := range idx {
		if e.bagOn[m][job.Bag] {
			continue
		}
		if e.loads[m]+job.Size >= e.bestMk-1e-12 {
			continue
		}
		e.loads[m] += job.Size
		e.bagOn[m][job.Bag] = true
		e.assign[ji] = m
		used := usedMachines
		if m == usedMachines {
			used++
		}
		if !e.dfs(depth+1, used) {
			complete = false
		}
		e.loads[m] -= job.Size
		delete(e.bagOn[m], job.Bag)
		e.assign[ji] = -1
		if e.aborted {
			return false
		}
	}
	// Machines skipped by pruning do not make the search incomplete: any
	// schedule using them cannot beat the incumbent. Bag-conflict skips
	// are exact. Only an abort makes the result unproven.
	return complete || !e.aborted
}
