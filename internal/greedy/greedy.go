// Package greedy implements the list-scheduling primitives the paper builds
// its small-job placement on: bag-LPT (Section 4, Lemma 8), group-bag-LPT
// (Section 4.1, Lemma 9) and least-loaded feasible list scheduling.
//
// The primitives are expressed over abstract items so they can be reused
// both by the EPTAS placer (on machine groups with reserved heights) and by
// the standalone baseline algorithms.
package greedy

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sched"
)

// Item is a job handle: Key identifies the job to the caller, Size is its
// processing time.
type Item struct {
	Key  int
	Size float64
}

// byDecreasingSize orders positions into items by decreasing size, ties
// by increasing key, then by position — a total order, so the unstable
// sort yields what a stable sort by (size, key) would.
func byDecreasingSize(items []Item) func(a, b int) int {
	return func(a, b int) int {
		if c := cmp.Compare(items[b].Size, items[a].Size); c != 0 {
			return c
		}
		if c := cmp.Compare(items[a].Key, items[b].Key); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
}

// identity resets perm to 0, 1, ..., n-1, reusing its storage.
func identity(perm []int, n int) []int {
	perm = perm[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, i)
	}
	return perm
}

// AssignBagLPT runs the paper's bag-LPT on a group of machines: for each
// bag in order, the bag's items are sorted by decreasing size, machines by
// increasing current load, and the j-th item goes to the j-th machine.
// Bags with fewer items than machines are implicitly padded with zero-size
// dummy jobs (the tail machines receive nothing).
//
// loads is modified in place. The result is parallel to bags: result[b][i]
// is the machine index (into loads) of bags[b][i]. Every bag must have at
// most len(loads) items; within a bag each item lands on a distinct
// machine, so the placement is conflict-free by construction (Lemma 8's
// precondition is that any item may run on any machine of the group).
func AssignBagLPT(loads []float64, bags [][]Item) ([][]int, error) {
	m := len(loads)
	result := make([][]int, len(bags))
	items := 0
	for _, bag := range bags {
		items += len(bag)
	}
	flat := make([]int, items)
	order := make([]int, m)
	var perm []int
	for b, bag := range bags {
		if len(bag) > m {
			return nil, fmt.Errorf("greedy: bag %d has %d items for %d machines", b, len(bag), m)
		}
		perm = identity(perm, len(bag))
		slices.SortFunc(perm, byDecreasingSize(bag))
		order = identity(order, m)
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(loads[a], loads[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		// perm lists bag positions largest item first; the j-th of them
		// goes to the j-th least-loaded machine.
		asg := flat[:len(bag):len(bag)]
		flat = flat[len(bag):]
		for j, p := range perm {
			mach := order[j]
			loads[mach] += bag[p].Size
			asg[p] = mach
		}
		result[b] = asg
	}
	return result, nil
}

// Group is a set of machines treated as one bucket by group-bag-LPT.
type Group struct {
	// Machines are global machine indices belonging to the group.
	Machines []int
	// Area is the total load currently on the group's machines.
	Area float64
}

// avg returns the group's average machine load.
func (g *Group) avg() float64 {
	if len(g.Machines) == 0 {
		return 0
	}
	return g.Area / float64(len(g.Machines))
}

// AssignGroupBagLPT runs the paper's group-bag-LPT: for each bag in order,
// its items are sorted by decreasing size and the groups by increasing
// average load; the first |M_1| items go to the first group, the next
// |M_2| to the second, and so on. Group areas are updated between bags.
//
// The result is parallel to bags: result[b][i] is the group index (into
// groups) of bags[b][i]. The total number of items in any single bag must
// not exceed the total number of machines.
func AssignGroupBagLPT(groups []*Group, bags [][]Item) ([][]int, error) {
	totalMachines := 0
	for _, g := range groups {
		totalMachines += len(g.Machines)
	}
	result := make([][]int, len(bags))
	order := make([]int, len(groups))
	var perm []int
	for b, bag := range bags {
		if len(bag) > totalMachines {
			return nil, fmt.Errorf("greedy: bag %d has %d items for %d machines total", b, len(bag), totalMachines)
		}
		perm = identity(perm, len(bag))
		slices.SortFunc(perm, byDecreasingSize(bag))
		order = identity(order, len(groups))
		slices.SortFunc(order, func(x, y int) int {
			if c := cmp.Compare(groups[x].avg(), groups[y].avg()); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		asg := make([]int, len(bag))
		next := 0
		for _, gi := range order {
			g := groups[gi]
			take := len(g.Machines)
			for t := 0; t < take && next < len(perm); t++ {
				p := perm[next]
				g.Area += bag[p].Size
				asg[p] = gi
				next++
			}
			if next == len(perm) {
				break
			}
		}
		result[b] = asg
	}
	return result, nil
}

// ListSchedule assigns the jobs of in, in the given index order, each to
// the least-loaded machine that holds no job of the same bag. It fails
// only if some bag has more jobs than machines.
func ListSchedule(in *sched.Instance, order []int) (*sched.Schedule, error) {
	s := sched.NewSchedule(in)
	loads := make([]float64, in.Machines)
	bagOn := make([]map[int]bool, in.Machines)
	for i := range bagOn {
		bagOn[i] = make(map[int]bool)
	}
	for _, ji := range order {
		job := in.Jobs[ji]
		best := -1
		for m := 0; m < in.Machines; m++ {
			if bagOn[m][job.Bag] {
				continue
			}
			if best < 0 || loads[m] < loads[best] {
				best = m
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("greedy: no conflict-free machine for job %d (bag %d)", ji, job.Bag)
		}
		s.Machine[ji] = best
		loads[best] += job.Size
		bagOn[best][job.Bag] = true
	}
	return s, nil
}

// BagLPT schedules a whole instance with the paper's bag-LPT applied
// globally: bags are processed in decreasing order of total area, and each
// bag's jobs are spread over the machines sorted by load. The schedule is
// conflict-free whenever every bag has at most m jobs.
func BagLPT(in *sched.Instance) (*sched.Schedule, error) {
	if err := in.Feasible(); err != nil {
		return nil, err
	}
	// Group the jobs by bag in one array, each bag's jobs in input
	// order: bag b's items are items[start[b]:start[b+1]].
	start := make([]int, in.NumBags+1)
	for _, j := range in.Jobs {
		start[j.Bag+1]++
	}
	for b := 1; b <= in.NumBags; b++ {
		start[b] += start[b-1]
	}
	items := make([]Item, len(in.Jobs))
	fill := append([]int(nil), start[:in.NumBags]...)
	for ji, j := range in.Jobs {
		items[fill[j.Bag]] = Item{Key: ji, Size: j.Size}
		fill[j.Bag]++
	}
	bagOrder := make([]int, in.NumBags)
	areas := make([]float64, in.NumBags)
	for b := range bagOrder {
		bagOrder[b] = b
		for _, it := range items[start[b]:start[b+1]] {
			areas[b] += it.Size
		}
	}
	slices.SortFunc(bagOrder, func(a, b int) int {
		if c := cmp.Compare(areas[b], areas[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	bags := make([][]Item, len(bagOrder))
	for i, b := range bagOrder {
		bags[i] = items[start[b]:start[b+1]]
	}
	loads := make([]float64, in.Machines)
	asg, err := AssignBagLPT(loads, bags)
	if err != nil {
		return nil, err
	}
	s := sched.NewSchedule(in)
	for bi, bag := range bags {
		for i, it := range bag {
			s.Machine[it.Key] = asg[bi][i]
		}
	}
	return s, nil
}

// SpeedLPT schedules an instance on uniformly related machines: jobs in
// decreasing size order, each to the machine minimizing its completion
// time (load+size)/speed, ties by machine index. Bag constraints are
// ignored (the related family uses singleton bags), so the schedule is
// always conflict-free for such instances.
func SpeedLPT(in *sched.Instance) (*sched.Schedule, error) {
	s := sched.NewSchedule(in)
	loads := make([]float64, in.Machines)
	for _, ji := range in.SortedJobIdxDesc() {
		size := in.Jobs[ji].Size
		best, bestT := -1, 0.0
		for m := 0; m < in.Machines; m++ {
			t := (loads[m] + size) / in.Speed(m)
			if best < 0 || t < bestT {
				best, bestT = m, t
			}
		}
		s.Machine[ji] = best
		loads[best] += size
	}
	return s, nil
}
