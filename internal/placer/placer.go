// Package placer turns a decoded MILP plan into a concrete schedule of the
// transformed instance, following Sections 3.1 and 4 of the paper:
//
//  1. priority large/medium jobs go into their reserved pattern slots;
//  2. non-priority large jobs fill the anonymous X slots greedily
//     (most-remaining bag first) and residual conflicts are repaired by
//     the Lemma 7 same-size swap argument, which leaves every machine's
//     load unchanged;
//  3. small jobs of priority bags are distributed over pattern groups —
//     either from the MILP's y variables (paper mode, with the Corollary 1
//     fractional merge and Lemma 10 slotting) or by a capacity-respecting
//     greedy (decomposed mode) — and placed inside each group with
//     bag-LPT (Lemma 8);
//  4. small jobs of non-priority bags are assigned to machine groups of
//     eps-rounded equal height with group-bag-LPT and placed with bag-LPT
//     (Lemma 9);
//  5. conflicts introduced by the step-2 swaps are repaired by chasing the
//     Lemma 11 origin function; a generic, provably terminating repair
//     handles anything left (it only triggers on solver artifacts and is
//     counted in Stats).
//
// Load accounting runs on the exact fixed-point representation
// (internal/numeric): per-machine loads are int64 adds and compares,
// resolved per job through the precomputed classify.View, and lifted back
// to float64 — losslessly — only at the greedy (bag-LPT) boundary. The
// pre-refactor float64 accounting is retained behind Input.Float64Ref for
// the differential tests.
package placer

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cfgmilp"
	"repro/internal/classify"
	"repro/internal/greedy"
	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/scratch"
)

// Stats reports the placement work performed.
type Stats struct {
	// MachinesUsed is the number of machines with a non-empty pattern.
	MachinesUsed int
	// EmptySlots counts reserved slots that received no job.
	EmptySlots int
	// XConflicts counts conflicts created while filling X slots.
	XConflicts int
	// SwapRepairs counts successful Lemma 7 swaps.
	SwapRepairs int
	// OriginMoves counts Lemma 11 origin-chasing moves.
	OriginMoves int
	// GenericMoves counts generic fallback repair moves.
	GenericMoves int
}

// Input bundles everything the placer needs.
type Input struct {
	// Inst is the transformed instance I'.
	Inst *sched.Instance
	// View is the exact numeric view of Inst (per-job size indices and
	// fixed-point sizes) under the classification of the original scaled
	// instance.
	View *classify.View
	// Prio flags priority bags of Inst.
	Prio []bool
	// Space is the enumerated pattern space.
	Space *pattern.Space
	// Plan is the decoded MILP solution.
	Plan *cfgmilp.Plan
	// Float64Ref switches machine-load accounting to the retained
	// float64 reference arithmetic (the pre-fixed-point seed path).
	// Results are bit-identical either way; the flag exists for
	// differential testing.
	Float64Ref bool
	// Arena, when non-nil, supplies the placement's scratch arrays (load
	// vectors, the machine→pattern map, greedy load snapshots). The
	// returned Schedule never aliases arena memory.
	Arena *scratch.Arena
}

// loadVec is the per-machine load accumulator. The default pipeline
// accounts in exact int64 fixed-point and lifts to float64 only at the
// greedy (bag-LPT) boundary — the lift is lossless, so the lifted loads
// are bit-identical to the seed's float64 accumulation, which is kept
// alive behind Input.Float64Ref for the differential tests.
type loadVec struct {
	fx  []numeric.Fx
	ref []float64 // non-nil only in Float64Ref mode
}

func newLoadVec(n int, float64Ref bool, arena *scratch.Arena) loadVec {
	l := loadVec{fx: arena.Fxs(n)}
	if float64Ref {
		l.ref = arena.Float64s(n)
	}
	return l
}

func (l *loadVec) add(m int, fx numeric.Fx, size float64) {
	l.fx[m] += fx
	if l.ref != nil {
		l.ref[m] += size
	}
}

func (l *loadVec) sub(m int, fx numeric.Fx, size float64) {
	l.fx[m] -= fx
	if l.ref != nil {
		l.ref[m] -= size
	}
}

// at lifts machine m's load to float64 (exact in fixed-point mode).
func (l *loadVec) at(m int) float64 {
	if l.ref != nil {
		return l.ref[m]
	}
	return l.fx[m].Float()
}

// less orders machines by load (exact integer compare by default).
func (l *loadVec) less(a, b int) bool {
	if l.ref != nil {
		return l.ref[a] < l.ref[b]
	}
	return l.fx[a] < l.fx[b]
}

// state is the mutable placement state.
type state struct {
	in          *sched.Instance
	view        *classify.View
	prio        []bool
	space       *pattern.Space
	sched       *sched.Schedule
	loads       loadVec
	bagsOn      []map[int]int // machine -> bag -> count
	origin      map[int]int   // priority ML job -> MILP machine (Lemma 11)
	machPattern []int         // machine -> pattern index
	arena       *scratch.Arena
	stats       Stats
}

// Place builds a feasible schedule of inp.Inst realizing the plan.
func Place(inp Input) (*sched.Schedule, Stats, error) {
	st := &state{
		in:     inp.Inst,
		view:   inp.View,
		prio:   inp.Prio,
		space:  inp.Space,
		sched:  sched.NewSchedule(inp.Inst),
		loads:  newLoadVec(inp.Inst.Machines, inp.Float64Ref, inp.Arena),
		bagsOn: make([]map[int]int, inp.Inst.Machines),
		origin: make(map[int]int),
		arena:  inp.Arena,
	}
	for i := range st.bagsOn {
		st.bagsOn[i] = make(map[int]int)
	}
	if err := st.expandMachines(inp.Plan); err != nil {
		return nil, st.stats, err
	}
	if err := st.placePrioritySlots(); err != nil {
		return nil, st.stats, err
	}
	if err := st.placeXSlots(); err != nil {
		return nil, st.stats, err
	}
	st.repairLargeConflicts()
	if err := st.placePrioritySmall(inp.Plan); err != nil {
		return nil, st.stats, err
	}
	if err := st.placeNonPrioritySmall(); err != nil {
		return nil, st.stats, err
	}
	st.repairOriginChasing()
	if err := st.repairGeneric(); err != nil {
		return nil, st.stats, err
	}
	if err := st.sched.Validate(); err != nil {
		return nil, st.stats, fmt.Errorf("placer: final schedule invalid: %w", err)
	}
	return st.sched, st.stats, nil
}

// assign puts job j on machine m, maintaining all state.
func (st *state) assign(j, m int) {
	st.sched.Machine[j] = m
	st.loads.add(m, st.view.JobFx[j], st.in.Jobs[j].Size)
	st.bagsOn[m][st.in.Jobs[j].Bag]++
}

// move relocates job j to machine m.
func (st *state) move(j, m int) {
	old := st.sched.Machine[j]
	if old >= 0 {
		st.loads.sub(old, st.view.JobFx[j], st.in.Jobs[j].Size)
		st.bagsOn[old][st.in.Jobs[j].Bag]--
		if st.bagsOn[old][st.in.Jobs[j].Bag] == 0 {
			delete(st.bagsOn[old], st.in.Jobs[j].Bag)
		}
	}
	st.sched.Machine[j] = m
	st.loads.add(m, st.view.JobFx[j], st.in.Jobs[j].Size)
	st.bagsOn[m][st.in.Jobs[j].Bag]++
}

// expandMachines maps machines to patterns according to the counts.
func (st *state) expandMachines(plan *cfgmilp.Plan) error {
	total := 0
	for _, c := range plan.XCount {
		if c < 0 {
			return fmt.Errorf("placer: negative pattern count %d", c)
		}
		total += c
	}
	if total > st.in.Machines {
		return fmt.Errorf("placer: plan uses %d machines, instance has %d", total, st.in.Machines)
	}
	st.machPattern = st.arena.Ints(st.in.Machines)
	mach := 0
	for p, c := range plan.XCount {
		for i := 0; i < c; i++ {
			st.machPattern[mach] = p
			mach++
		}
		if c > 0 && st.space.Patterns[p].NumJobs > 0 {
			st.stats.MachinesUsed += c
		}
	}
	// Machines beyond the plan run the empty pattern (index 0).
	for ; mach < st.in.Machines; mach++ {
		st.machPattern[mach] = 0
	}
	return nil
}

// mlJobsBy returns priority (bag,size)->jobs and per-size non-priority
// job lists, in deterministic order.
func (st *state) mlJobsBy() (map[[2]int][]int, map[int][][2]int) {
	prioJobs := make(map[[2]int][]int)
	xJobs := make(map[int][][2]int) // size idx -> list of (job, bag)
	for j, job := range st.in.Jobs {
		if st.view.Class(j) == classify.Small {
			continue
		}
		si := st.view.JobIdx[j]
		if st.prio[job.Bag] {
			prioJobs[[2]int{job.Bag, si}] = append(prioJobs[[2]int{job.Bag, si}], j)
		} else {
			xJobs[si] = append(xJobs[si], [2]int{j, job.Bag})
		}
	}
	return prioJobs, xJobs
}

// placePrioritySlots fills reserved (bag, size) slots with the actual
// priority jobs, machine by machine.
func (st *state) placePrioritySlots() error {
	prioJobs, _ := st.mlJobsBy()
	next := make(map[[2]int]int)
	for mach := 0; mach < st.in.Machines; mach++ {
		p := &st.space.Patterns[st.machPattern[mach]]
		for _, slot := range p.Prio {
			key := [2]int{slot.Bag, slot.SizeIdx}
			jobs := prioJobs[key]
			if next[key] >= len(jobs) {
				st.stats.EmptySlots++
				continue
			}
			j := jobs[next[key]]
			next[key]++
			st.assign(j, mach)
			st.origin[j] = mach
		}
	}
	for key, jobs := range prioJobs {
		if next[key] < len(jobs) {
			return fmt.Errorf("placer: %d unplaced priority jobs for bag %d size idx %d",
				len(jobs)-next[key], key[0], key[1])
		}
	}
	return nil
}

// placeXSlots fills anonymous X slots with non-priority large jobs,
// choosing for each slot the conflict-free bag with the most remaining
// jobs (the Lemma 7 greedy); unavoidable conflicts are recorded and fixed
// by repairLargeConflicts.
func (st *state) placeXSlots() error {
	_, xJobs := st.mlJobsBy()
	for _, si := range st.space.XSizes {
		// remaining[bag] = queue of jobs of this size.
		remaining := make(map[int][]int)
		for _, jb := range xJobs[si] {
			remaining[jb[1]] = append(remaining[jb[1]], jb[0])
		}
		left := len(xJobs[si])
		for mach := 0; mach < st.in.Machines && left > 0; mach++ {
			p := &st.space.Patterns[st.machPattern[mach]]
			mult := st.space.XMult(p, si)
			for k := 0; k < mult && left > 0; k++ {
				bag := st.pickXBag(remaining, mach)
				if bag < 0 {
					// Every remaining bag conflicts here: take the
					// fullest bag anyway and repair later (Lemma 7).
					bag = st.pickFullestBag(remaining)
					st.stats.XConflicts++
				}
				j := remaining[bag][0]
				remaining[bag] = remaining[bag][1:]
				if len(remaining[bag]) == 0 {
					delete(remaining, bag)
				}
				st.assign(j, mach)
				left--
			}
		}
		if left > 0 {
			return fmt.Errorf("placer: %d non-priority jobs of size idx %d without X slots", left, si)
		}
	}
	return nil
}

// pickXBag returns the bag with the most remaining jobs that is absent
// from machine mach, or -1.
func (st *state) pickXBag(remaining map[int][]int, mach int) int {
	best, bestN := -1, -1
	for _, bag := range sortedKeys(remaining) {
		if st.bagsOn[mach][bag] > 0 {
			continue
		}
		if n := len(remaining[bag]); n > bestN {
			best, bestN = bag, n
		}
	}
	return best
}

func (st *state) pickFullestBag(remaining map[int][]int) int {
	best, bestN := -1, -1
	for _, bag := range sortedKeys(remaining) {
		if n := len(remaining[bag]); n > bestN {
			best, bestN = bag, n
		}
	}
	return best
}

// repairLargeConflicts resolves bag conflicts among medium/large jobs via
// the Lemma 7 swap: exchange a conflicting job with a same-size job on
// another machine so that neither machine's load changes.
func (st *state) repairLargeConflicts() {
	// Jobs grouped by size index for swap candidates.
	bySize := make(map[int][]int)
	for j := range st.in.Jobs {
		if st.view.Class(j) == classify.Small || st.sched.Machine[j] < 0 {
			continue
		}
		bySize[st.view.JobIdx[j]] = append(bySize[st.view.JobIdx[j]], j)
	}
	for pass := 0; pass < 4; pass++ {
		conflicts := st.mlConflictJobs()
		if len(conflicts) == 0 {
			return
		}
		progress := false
		for _, j := range conflicts {
			c := st.sched.Machine[j]
			bagJ := st.in.Jobs[j].Bag
			if st.bagsOn[c][bagJ] < 2 {
				continue // already fixed by an earlier swap
			}
			si := st.view.JobIdx[j]
			if st.trySwap(j, c, bagJ, bySize[si]) {
				st.stats.SwapRepairs++
				progress = true
			}
		}
		if !progress {
			return // leave the rest to the generic repair
		}
	}
}

// mlConflictJobs returns medium/large jobs involved in a same-bag
// conflict with another medium/large job, deterministically ordered,
// preferring non-priority jobs as the ones to move.
func (st *state) mlConflictJobs() []int {
	var out []int
	for j, job := range st.in.Jobs {
		if st.sched.Machine[j] < 0 || st.view.Class(j) == classify.Small {
			continue
		}
		m := st.sched.Machine[j]
		if st.bagsOn[m][job.Bag] >= 2 && !st.prio[job.Bag] {
			out = append(out, j)
		}
	}
	return out
}

// trySwap looks for a same-size job j2 on another machine d such that
// swapping j and j2 removes the conflict on c without creating one on
// either machine. Non-priority partners are preferred so that priority
// slots keep their MILP machines when possible.
func (st *state) trySwap(j, c, bagJ int, candidates []int) bool {
	var fallback = -1
	for _, j2 := range candidates {
		if j2 == j {
			continue
		}
		d := st.sched.Machine[j2]
		if d == c || d < 0 {
			continue
		}
		bag2 := st.in.Jobs[j2].Bag
		if bag2 == bagJ {
			continue // would re-create the conflict on c
		}
		if st.bagsOn[c][bag2] > 0 || st.bagsOn[d][bagJ] > 0 {
			continue
		}
		if !st.prio[bag2] {
			st.swap(j, j2)
			return true
		}
		if fallback < 0 {
			fallback = j2
		}
	}
	if fallback >= 0 {
		st.swap(j, fallback)
		return true
	}
	return false
}

// swap exchanges the machines of two equal-sized jobs.
func (st *state) swap(a, b int) {
	ma, mb := st.sched.Machine[a], st.sched.Machine[b]
	st.move(a, mb)
	st.move(b, ma)
}

// groupOf collects the machines per pattern index.
func (st *state) machinesOfPattern() map[int][]int {
	out := make(map[int][]int)
	for mach, p := range st.machPattern {
		out[p] = append(out[p], mach)
	}
	return out
}

// placePrioritySmall distributes the small jobs of priority bags over the
// pattern groups and runs bag-LPT inside each group.
func (st *state) placePrioritySmall(plan *cfgmilp.Plan) error {
	// Small jobs of priority bags grouped by (bag, size idx).
	jobsBy := make(map[[2]int][]int)
	var keys [][2]int
	for j, job := range st.in.Jobs {
		if st.view.Class(j) != classify.Small || !st.prio[job.Bag] {
			continue
		}
		si := st.view.JobIdx[j]
		key := [2]int{job.Bag, si}
		if _, ok := jobsBy[key]; !ok {
			keys = append(keys, key)
		}
		jobsBy[key] = append(jobsBy[key], j)
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})

	// jobToPattern[j] = pattern group receiving job j.
	jobToPattern := make(map[int]int)
	var err error
	if plan.HasY {
		err = st.distributeSmallFromY(plan, jobsBy, keys, jobToPattern)
	} else {
		err = st.distributeSmallGreedy(plan, jobsBy, keys, jobToPattern)
	}
	if err != nil {
		return err
	}

	// Per pattern group: bag-LPT over its machines.
	groups := st.machinesOfPattern()
	for _, p := range sortedKeys(groups) {
		machines := groups[p]
		// Bags present in this group.
		byBag := make(map[int][]greedy.Item)
		for j, pp := range jobToPattern {
			if pp != p {
				continue
			}
			byBag[st.in.Jobs[j].Bag] = append(byBag[st.in.Jobs[j].Bag], greedy.Item{Key: j, Size: st.in.Jobs[j].Size})
		}
		if len(byBag) == 0 {
			continue
		}
		var bags [][]greedy.Item
		for _, bag := range sortedKeysItems(byBag) {
			items := byBag[bag]
			sort.Slice(items, func(a, b int) bool { return items[a].Key < items[b].Key })
			if len(items) > len(machines) {
				return fmt.Errorf("placer: bag %d got %d small jobs for %d machines of pattern %d",
					bag, len(items), len(machines), p)
			}
			bags = append(bags, items)
		}
		loads := st.arena.Float64s(len(machines))
		for i, m := range machines {
			loads[i] = st.loads.at(m)
		}
		asg, err := greedy.AssignBagLPT(loads, bags)
		if err != nil {
			return err
		}
		for bi, items := range bags {
			for ii, it := range items {
				st.assign(it.Key, machines[asg[bi][ii]])
			}
		}
	}
	return nil
}

// distributeSmallGreedy is the decomposed-mode distribution: jobs in
// decreasing size order go to the pattern group with the most remaining
// reserved area among those that avoid the bag and have bag capacity.
func (st *state) distributeSmallGreedy(plan *cfgmilp.Plan, jobsBy map[[2]int][]int, keys [][2]int, out map[int]int) error {
	type groupState struct {
		pattern  int
		count    int // machines
		areaCap  float64
		areaUsed float64
		bagUsed  map[int]int
	}
	var groups []*groupState
	for p, c := range plan.XCount {
		if c <= 0 && p != 0 {
			continue
		}
		n := c
		if p == 0 {
			// The empty pattern also covers the padding machines.
			n = st.in.Machines
			for pp, cc := range plan.XCount {
				if pp != 0 {
					n -= cc
				}
			}
			if n <= 0 {
				continue
			}
		}
		h := st.space.Patterns[p].Height
		groups = append(groups, &groupState{
			pattern: p,
			count:   n,
			areaCap: float64(n) * (st.view.Info.T - h),
			bagUsed: make(map[int]int),
		})
	}
	// All jobs, largest first.
	type jobRef struct {
		j    int
		bag  int
		size float64
	}
	var jobs []jobRef
	for _, key := range keys {
		for _, j := range jobsBy[key] {
			jobs = append(jobs, jobRef{j: j, bag: key[0], size: st.in.Jobs[j].Size})
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool {
		if jobs[a].size != jobs[b].size {
			return jobs[a].size > jobs[b].size
		}
		return jobs[a].j < jobs[b].j
	})
	for _, jr := range jobs {
		var best *groupState
		bestFit := false
		for _, g := range groups {
			if g.bagUsed[jr.bag] >= g.count {
				continue
			}
			if st.space.Patterns[g.pattern].ChiBag(jr.bag) {
				continue
			}
			rem := g.areaCap - g.areaUsed
			fits := rem >= jr.size-numeric.Tol
			switch {
			case best == nil,
				fits && !bestFit,
				fits == bestFit && rem > best.areaCap-best.areaUsed:
				best, bestFit = g, fits
			}
		}
		if best == nil {
			return fmt.Errorf("placer: no pattern group can take small job %d of bag %d", jr.j, jr.bag)
		}
		best.areaUsed += jr.size
		best.bagUsed[jr.bag]++
		out[jr.j] = best.pattern
	}
	return nil
}

// distributeSmallFromY is the paper-mode distribution: integral parts of
// the y variables pin whole jobs to patterns; the fractional remainders
// are resolved by assigning each leftover job to the pattern with the
// largest remaining fractional mass for its (bag, size), mirroring the
// Corollary 1 merge plus Lemma 10 slotting (every leftover job is at most
// sigma, each constructed slot takes exactly one of them).
func (st *state) distributeSmallFromY(plan *cfgmilp.Plan, jobsBy map[[2]int][]int, keys [][2]int, out map[int]int) error {
	for _, key := range keys {
		bag, si := key[0], key[1]
		jobs := jobsBy[key]
		// Collect y values for this (bag, size) per pattern.
		type mass struct {
			pattern int
			whole   int
			frac    float64
		}
		var masses []mass
		for p := range plan.Space.Patterns {
			y, ok := plan.Y[cfgmilp.YKey{Pattern: p, Bag: bag, SizeIdx: si}]
			if !ok || y <= 1e-9 {
				continue
			}
			w := int(math.Floor(y + 1e-6))
			masses = append(masses, mass{pattern: p, whole: w, frac: y - float64(w)})
		}
		next := 0
		for mi := range masses {
			for k := 0; k < masses[mi].whole && next < len(jobs); k++ {
				out[jobs[next]] = masses[mi].pattern
				next++
			}
		}
		// Leftovers take the largest remaining fractional masses.
		for next < len(jobs) {
			bestIdx, bestFrac := -1, 0.0
			for mi := range masses {
				if masses[mi].frac > bestFrac+1e-12 {
					bestIdx, bestFrac = mi, masses[mi].frac
				}
			}
			if bestIdx < 0 {
				// y undershoots (solver tolerance): fall back to any
				// pattern avoiding the bag.
				p := st.anyAvoidingPattern(plan, bag)
				if p < 0 {
					return fmt.Errorf("placer: no pattern avoids bag %d for leftover small job", bag)
				}
				out[jobs[next]] = p
				next++
				continue
			}
			out[jobs[next]] = masses[bestIdx].pattern
			masses[bestIdx].frac -= 1
			next++
		}
	}
	return nil
}

// anyAvoidingPattern returns a used pattern that avoids the bag, or -1.
func (st *state) anyAvoidingPattern(plan *cfgmilp.Plan, bag int) int {
	for p, c := range plan.XCount {
		if c > 0 && !plan.Space.Patterns[p].ChiBag(bag) {
			return p
		}
	}
	if !plan.Space.Patterns[0].ChiBag(bag) {
		return 0
	}
	return -1
}

// placeNonPrioritySmall groups machines by eps-rounded height and runs
// group-bag-LPT then bag-LPT (Section 4.1).
func (st *state) placeNonPrioritySmall() error {
	eps := st.view.Info.Eps
	// Bags of non-priority small jobs (includes fillers).
	byBag := make(map[int][]greedy.Item)
	for j, job := range st.in.Jobs {
		if st.sched.Machine[j] >= 0 || st.prio[job.Bag] {
			continue
		}
		if st.view.Class(j) != classify.Small {
			continue
		}
		byBag[job.Bag] = append(byBag[job.Bag], greedy.Item{Key: j, Size: job.Size})
	}
	if len(byBag) == 0 {
		return nil
	}
	// Machine groups by rounded height.
	groupIdx := make(map[int]int)
	var groups []*greedy.Group
	for mach := 0; mach < st.in.Machines; mach++ {
		load := st.loads.at(mach)
		key := int(math.Ceil(load/eps - numeric.Tol))
		gi, ok := groupIdx[key]
		if !ok {
			gi = len(groups)
			groupIdx[key] = gi
			groups = append(groups, &greedy.Group{})
		}
		groups[gi].Machines = append(groups[gi].Machines, mach)
		groups[gi].Area += load
	}
	// Bags ordered by decreasing total area (deterministic).
	bagOrder := sortedKeysItems(byBag)
	sort.SliceStable(bagOrder, func(a, b int) bool {
		aa := itemsArea(byBag[bagOrder[a]])
		ab := itemsArea(byBag[bagOrder[b]])
		if aa != ab {
			return aa > ab
		}
		return bagOrder[a] < bagOrder[b]
	})
	bags := make([][]greedy.Item, len(bagOrder))
	for i, bag := range bagOrder {
		items := byBag[bag]
		sort.Slice(items, func(a, b int) bool { return items[a].Key < items[b].Key })
		bags[i] = items
	}
	asg, err := greedy.AssignGroupBagLPT(groups, bags)
	if err != nil {
		return err
	}
	// Per group, run bag-LPT with the jobs assigned to it.
	perGroup := make([]map[int][]greedy.Item, len(groups))
	for gi := range perGroup {
		perGroup[gi] = make(map[int][]greedy.Item)
	}
	for bi, items := range bags {
		for ii, it := range items {
			gi := asg[bi][ii]
			bag := st.in.Jobs[it.Key].Bag
			perGroup[gi][bag] = append(perGroup[gi][bag], it)
		}
	}
	for gi, g := range groups {
		if len(perGroup[gi]) == 0 {
			continue
		}
		var gBags [][]greedy.Item
		for _, bag := range sortedKeysItems(perGroup[gi]) {
			gBags = append(gBags, perGroup[gi][bag])
		}
		loads := st.arena.Float64s(len(g.Machines))
		for i, m := range g.Machines {
			loads[i] = st.loads.at(m)
		}
		gAsg, err := greedy.AssignBagLPT(loads, gBags)
		if err != nil {
			return err
		}
		for bi, items := range gBags {
			for ii, it := range items {
				st.assign(it.Key, g.Machines[gAsg[bi][ii]])
			}
		}
	}
	return nil
}

// repairOriginChasing resolves conflicts between a priority small job and
// a priority medium/large job of the same bag by following the Lemma 11
// origin function until a free machine is found.
func (st *state) repairOriginChasing() {
	for guard := 0; guard < len(st.in.Jobs); guard++ {
		conflicts := st.sched.Conflicts()
		fixed := false
		for _, c := range conflicts {
			small, big := c.JobA, c.JobB
			if st.in.Jobs[small].Size > st.in.Jobs[big].Size {
				small, big = big, small
			}
			if st.view.Class(small) != classify.Small {
				continue
			}
			if _, ok := st.origin[big]; !ok {
				continue
			}
			if st.chase(small, big, c.Bag) {
				st.stats.OriginMoves++
				fixed = true
				break // conflicts list is stale; recompute
			}
		}
		if !fixed {
			return
		}
	}
}

// chase walks origin pointers from the conflicting large job until a
// machine free of the bag is found, then moves the small job there.
func (st *state) chase(small, big, bag int) bool {
	target := st.origin[big]
	visited := make(map[int]bool)
	for steps := 0; steps <= st.in.Machines; steps++ {
		if visited[target] {
			return false
		}
		visited[target] = true
		if target != st.sched.Machine[small] && st.bagsOn[target][bag] == 0 {
			st.move(small, target)
			return true
		}
		// Find the blocking job of this bag on target.
		blocker := -1
		for j, mach := range st.sched.Machine {
			if mach == target && st.in.Jobs[j].Bag == bag && j != small {
				blocker = j
				break
			}
		}
		if blocker < 0 {
			return false
		}
		next, ok := st.origin[blocker]
		if !ok {
			return false
		}
		target = next
	}
	return false
}

// repairGeneric removes any remaining conflicts by moving the smaller job
// of each conflicting pair to the least-loaded machine without the bag.
// It terminates because each move strictly reduces the number of
// conflicting pairs, and a free machine always exists while any bag has
// at most m jobs.
func (st *state) repairGeneric() error {
	for guard := 0; guard <= 2*len(st.in.Jobs); guard++ {
		conflicts := st.sched.Conflicts()
		if len(conflicts) == 0 {
			return nil
		}
		c := conflicts[0]
		j := c.JobA
		if st.in.Jobs[c.JobB].Size < st.in.Jobs[j].Size {
			j = c.JobB
		}
		target := -1
		for mach := 0; mach < st.in.Machines; mach++ {
			if st.bagsOn[mach][c.Bag] > 0 {
				continue
			}
			if target < 0 || st.loads.less(mach, target) {
				target = mach
			}
		}
		if target < 0 {
			return fmt.Errorf("placer: bag %d saturates all machines; instance infeasible", c.Bag)
		}
		st.move(j, target)
		st.stats.GenericMoves++
	}
	return fmt.Errorf("placer: generic repair did not converge")
}

// --- deterministic helpers ---

func sortedKeys(m map[int][]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func sortedKeysItems(m map[int][]greedy.Item) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func itemsArea(items []greedy.Item) float64 {
	a := 0.0
	for _, it := range items {
		a += it.Size
	}
	return a
}
