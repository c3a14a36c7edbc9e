// Package sched defines the core problem types for machine scheduling with
// bag-constraints (P | bags | Cmax): instances, schedules, feasibility
// checks, load accounting and combinatorial lower bounds.
//
// An instance consists of m identical machines and a set of jobs, each with
// a positive processing time and a bag index. A schedule assigns every job
// to a machine; it is feasible when no machine holds two jobs of the same
// bag. The makespan is the maximum machine load.
package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/numeric"
)

// JobID identifies a job within an instance. IDs are stable across clones
// and transformations so solutions can be mapped back to the original
// instance.
type JobID int

// Job is a single unit of work.
type Job struct {
	// ID is the job's stable identity within its instance.
	ID JobID
	// Size is the processing time; it must be positive.
	Size float64
	// Bag is the index of the bag containing this job, in [0, NumBags).
	Bag int
}

// Instance is a bag-constrained scheduling instance.
type Instance struct {
	// Jobs holds all jobs. Job IDs are unique but need not be dense.
	Jobs []Job
	// NumBags is the number of bags; every job's Bag is < NumBags.
	NumBags int
	// Machines is the number of machines, at least 1.
	Machines int
	// Speeds, when non-nil, gives each machine a positive speed: machine
	// m finishes load L in time L/Speeds[m] (the uniformly related
	// machines model, Q||Cmax). Nil means identical machines (all speeds
	// 1), the bag-constrained model of the paper. Which problem families
	// accept speed instances is decided by internal/family.
	Speeds []float64
}

// NewInstance returns an empty instance with the given machine count.
func NewInstance(machines int) *Instance {
	return &Instance{Machines: machines}
}

// NewRelatedInstance returns an empty uniformly-related-machines
// instance with one machine per entry of speeds.
func NewRelatedInstance(speeds []float64) *Instance {
	return &Instance{Machines: len(speeds), Speeds: append([]float64(nil), speeds...)}
}

// Speed returns machine m's speed (1 for identical machines).
func (in *Instance) Speed(m int) float64 {
	if in.Speeds == nil {
		return 1
	}
	return in.Speeds[m]
}

// Uniform reports whether all machines run at the same speed.
func (in *Instance) Uniform() bool {
	for _, s := range in.Speeds {
		if s != in.Speeds[0] {
			return false
		}
	}
	return true
}

// AddJob appends a job with the given size and bag, extending NumBags if
// needed, and returns its index in Jobs.
func (in *Instance) AddJob(size float64, bag int) int {
	idx := len(in.Jobs)
	in.Jobs = append(in.Jobs, Job{ID: JobID(idx), Size: size, Bag: bag})
	if bag >= in.NumBags {
		in.NumBags = bag + 1
	}
	return idx
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		Jobs:     make([]Job, len(in.Jobs)),
		NumBags:  in.NumBags,
		Machines: in.Machines,
	}
	copy(out.Jobs, in.Jobs)
	if in.Speeds != nil {
		out.Speeds = append([]float64(nil), in.Speeds...)
	}
	return out
}

// Validate checks structural well-formedness: at least one machine,
// positive job sizes and bag indices in range. It does not check
// feasibility; see Feasible.
func (in *Instance) Validate() error {
	if in.Machines < 1 {
		return fmt.Errorf("sched: instance has %d machines, need at least 1", in.Machines)
	}
	if in.Speeds != nil {
		if len(in.Speeds) != in.Machines {
			return fmt.Errorf("sched: instance has %d speeds for %d machines", len(in.Speeds), in.Machines)
		}
		for m, s := range in.Speeds {
			if s <= 0 {
				return fmt.Errorf("sched: machine %d has non-positive speed %g", m, s)
			}
		}
	}
	dup := in.firstDuplicateID()
	for i, j := range in.Jobs {
		if j.Size <= 0 {
			return fmt.Errorf("sched: job %d (id %d) has non-positive size %g", i, j.ID, j.Size)
		}
		if j.Bag < 0 || j.Bag >= in.NumBags {
			return fmt.Errorf("sched: job %d (id %d) has bag %d outside [0,%d)", i, j.ID, j.Bag, in.NumBags)
		}
		if i == dup {
			return fmt.Errorf("sched: duplicate job id %d", j.ID)
		}
	}
	return nil
}

// firstDuplicateID returns the index of the first job whose ID repeats
// the ID of an earlier job, or len(in.Jobs) when all IDs are distinct.
// IDs that increase in input order — what AddJob, the generators and
// the JSON encoding produce — are checked in one pass without
// allocating; otherwise job positions are sorted by (ID, position),
// and the first duplicate is the smallest position that is not the
// first of its ID.
func (in *Instance) firstDuplicateID() int {
	jobs := in.Jobs
	increasing := true
	for i := 1; i < len(jobs) && increasing; i++ {
		increasing = jobs[i-1].ID < jobs[i].ID
	}
	if increasing {
		return len(jobs)
	}
	pos := make([]int, len(jobs))
	for i := range pos {
		pos[i] = i
	}
	slices.SortFunc(pos, func(a, b int) int {
		if c := cmp.Compare(jobs[a].ID, jobs[b].ID); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	first := len(jobs)
	for k := 1; k < len(pos); k++ {
		if jobs[pos[k]].ID == jobs[pos[k-1]].ID {
			first = min(first, pos[k])
		}
	}
	return first
}

// Feasible reports whether any feasible schedule exists: every bag must
// hold at most Machines jobs (its jobs need pairwise-distinct machines).
func (in *Instance) Feasible() error {
	counts := in.BagCounts()
	for b, c := range counts {
		if c > in.Machines {
			return fmt.Errorf("sched: bag %d has %d jobs but only %d machines", b, c, in.Machines)
		}
	}
	return nil
}

// TotalArea returns the sum of all job sizes.
func (in *Instance) TotalArea() float64 {
	var area numeric.Kahan
	for _, j := range in.Jobs {
		area.Add(j.Size)
	}
	return area.Value()
}

// MaxJobSize returns the largest job size, or 0 if there are no jobs.
func (in *Instance) MaxJobSize() float64 {
	var m float64
	for _, j := range in.Jobs {
		if j.Size > m {
			m = j.Size
		}
	}
	return m
}

// BagCounts returns the number of jobs per bag.
func (in *Instance) BagCounts() []int {
	counts := make([]int, in.NumBags)
	for _, j := range in.Jobs {
		counts[j.Bag]++
	}
	return counts
}

// JobsByBag returns, for each bag, the indices (into Jobs) of its jobs in
// input order.
func (in *Instance) JobsByBag() [][]int {
	byBag := make([][]int, in.NumBags)
	for i, j := range in.Jobs {
		byBag[j.Bag] = append(byBag[j.Bag], i)
	}
	return byBag
}

// SortedJobIdxDesc returns job indices sorted by decreasing size, ties
// broken by increasing job ID, then by index, for determinism.
func (in *Instance) SortedJobIdxDesc() []int {
	idx := make([]int, len(in.Jobs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		ja, jb := in.Jobs[a], in.Jobs[b]
		if c := cmp.Compare(jb.Size, ja.Size); c != 0 {
			return c
		}
		if c := cmp.Compare(ja.ID, jb.ID); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return idx
}

// LowerBound returns a combinatorial lower bound on the optimal makespan:
// the maximum of the largest job, the average machine area, and, when there
// are more jobs than machines, the classical pairing bound p_(m) + p_(m+1)
// (some machine must hold two of the m+1 largest jobs).
func LowerBound(in *Instance) float64 {
	if len(in.Jobs) == 0 {
		return 0
	}
	lb := in.MaxJobSize()
	if avg := in.TotalArea() / float64(in.Machines); avg > lb {
		lb = avg
	}
	if len(in.Jobs) > in.Machines {
		idx := in.SortedJobIdxDesc()
		pair := in.Jobs[idx[in.Machines-1]].Size + in.Jobs[idx[in.Machines]].Size
		if pair > lb {
			lb = pair
		}
	}
	return lb
}

// Schedule is an assignment of every job of an instance to a machine.
type Schedule struct {
	// Inst is the instance being scheduled.
	Inst *Instance
	// Machine[i] is the machine of job i (index into Inst.Jobs), in
	// [0, Inst.Machines).
	Machine []int
}

// NewSchedule returns a schedule for in with all assignments set to -1
// (unassigned). Unassigned jobs make the schedule invalid.
func NewSchedule(in *Instance) *Schedule {
	m := make([]int, len(in.Jobs))
	for i := range m {
		m[i] = -1
	}
	return &Schedule{Inst: in, Machine: m}
}

// Clone returns a deep copy sharing the same instance.
func (s *Schedule) Clone() *Schedule {
	m := make([]int, len(s.Machine))
	copy(m, s.Machine)
	return &Schedule{Inst: s.Inst, Machine: m}
}

// Loads returns the per-machine load vector.
func (s *Schedule) Loads() []float64 {
	loads := make([]float64, s.Inst.Machines)
	for i, m := range s.Machine {
		if m >= 0 {
			loads[m] += s.Inst.Jobs[i].Size
		}
	}
	return loads
}

// Makespan returns the maximum machine completion time: the maximum
// load for identical machines, the maximum of load/speed when the
// instance carries machine speeds.
func (s *Schedule) Makespan() float64 {
	loads := s.Loads()
	if s.Inst.Speeds == nil {
		return numeric.MaxFloat(loads)
	}
	var ms float64
	for m, l := range loads {
		if t := l / s.Inst.Speeds[m]; t > ms {
			ms = t
		}
	}
	return ms
}

// Conflict is a violation of the bag-constraint: two jobs of one bag on
// one machine.
type Conflict struct {
	// JobA and JobB are indices into Inst.Jobs with JobA < JobB.
	JobA, JobB int
	// Machine is the shared machine.
	Machine int
	// Bag is the shared bag.
	Bag int
}

// Conflicts returns all bag-constraint violations, one per offending job
// pair, in deterministic order.
func (s *Schedule) Conflicts() []Conflict {
	// seen[(machine,bag)] = first job index observed there.
	type key struct{ machine, bag int }
	var out []Conflict
	seen := make(map[key][]int)
	for i, m := range s.Machine {
		if m < 0 {
			continue
		}
		k := key{m, s.Inst.Jobs[i].Bag}
		seen[k] = append(seen[k], i)
	}
	for k, jobs := range seen {
		for a := 0; a < len(jobs); a++ {
			for b := a + 1; b < len(jobs); b++ {
				out = append(out, Conflict{JobA: jobs[a], JobB: jobs[b], Machine: k.machine, Bag: k.bag})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].JobA != out[b].JobA {
			return out[a].JobA < out[b].JobA
		}
		return out[a].JobB < out[b].JobB
	})
	return out
}

// Validate checks that every job is assigned to a machine in range and
// that no bag-constraint is violated.
func (s *Schedule) Validate() error {
	if len(s.Machine) != len(s.Inst.Jobs) {
		return fmt.Errorf("sched: schedule covers %d jobs, instance has %d", len(s.Machine), len(s.Inst.Jobs))
	}
	for i, m := range s.Machine {
		if m < 0 || m >= s.Inst.Machines {
			return fmt.Errorf("sched: job %d assigned to machine %d outside [0,%d)", i, m, s.Inst.Machines)
		}
	}
	if s.hasConflict() {
		c := s.Conflicts()
		return fmt.Errorf("sched: %d bag-constraint violations, first: jobs %d,%d (bag %d) on machine %d",
			len(c), c[0].JobA, c[0].JobB, c[0].Bag, c[0].Machine)
	}
	return nil
}

// hasConflict reports whether two jobs of one bag share a machine, for
// a schedule whose machines are in range. It groups the jobs by bag with
// a counting sort and stamps each machine with the last bag seen on it:
// linear in jobs, bags and machines, in one allocation. A job whose bag
// lies outside [0, NumBags) is left to Conflicts.
func (s *Schedule) hasConflict() bool {
	jobs, nb, nm := s.Inst.Jobs, s.Inst.NumBags, s.Inst.Machines
	buf := make([]int32, nb+1+len(jobs)+nm)
	start, order, stamp := buf[:nb+1], buf[nb+1:nb+1+len(jobs)], buf[nb+1+len(jobs):]
	for _, j := range jobs {
		if j.Bag < 0 || j.Bag >= nb {
			return len(s.Conflicts()) > 0
		}
		start[j.Bag+1]++
	}
	for b := 1; b <= nb; b++ {
		start[b] += start[b-1]
	}
	// start[b] now counts the jobs of bags below b; filling advances it
	// to the end of bag b's group.
	for i, j := range jobs {
		order[start[j.Bag]] = int32(i)
		start[j.Bag]++
	}
	first := int32(0)
	for b := 0; b < nb; b++ {
		for _, i := range order[first:start[b]] {
			m := s.Machine[i]
			if stamp[m] == int32(b+1) {
				return true
			}
			stamp[m] = int32(b + 1)
		}
		first = start[b]
	}
	return false
}

// JobsOnMachine returns, per machine, the job indices assigned to it in
// input order.
func (s *Schedule) JobsOnMachine() [][]int {
	out := make([][]int, s.Inst.Machines)
	for i, m := range s.Machine {
		if m >= 0 {
			out[m] = append(out[m], i)
		}
	}
	return out
}
