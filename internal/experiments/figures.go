package experiments

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/round"
	"repro/internal/sched"
	"repro/internal/transform"
	"repro/internal/workload"
)

func init() {
	register("F1", runF1)
	register("F2", runF2)
	register("F3", runF3)
}

// runF1 reproduces Figure 1: a large-job placement that is "efficient"
// (fits within (1+eps)OPT) can still force the small jobs to blow up the
// makespan, so the scheme must pick the right large-job placement.
func runF1(cfg Config) (*Table, error) {
	machines := 4
	if !cfg.Quick {
		machines = 8
	}
	in := workload.MustGenerate(workload.Spec{Family: workload.Adversarial, Machines: machines})

	t := &Table{
		ID:     "F1",
		Title:  "Figure 1 — large-job placement decides the makespan",
		Claim:  "packing large jobs tightly (still within (1+eps)OPT of large-job height) forces small jobs to overflow, while OPT and the EPTAS spread them",
		Header: []string{"placement", "makespan", "ratio vs OPT"},
	}

	ex, err := baselines.Exact(in, baselines.ExactOptions{TimeLimit: 20 * time.Second})
	if err != nil {
		return nil, err
	}
	opt := ex.Makespan
	t.Rows = append(t.Rows, []string{"optimal (exact B&B)", f4(opt), f3(1)})

	res, err := core.Solve(in, core.Options{Eps: 0.3})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"EPTAS (eps=0.3)", f4(res.Makespan), f3(res.Makespan / opt)})

	stacked, err := stackedLargeDemo(in, 0.2)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"figure-1 stacked large jobs", f4(stacked.Makespan()), f3(stacked.Makespan() / opt)})

	bl, err := baselines.BagLPT(in)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"bag-LPT", f4(bl.Makespan()), f3(bl.Makespan() / opt)})

	t.Notes = append(t.Notes,
		fmt.Sprintf("Instance: %s (Figure-1 family, OPT packs each machine to ~1.0 per unit guess).", workload.Spec{Family: workload.Adversarial, Machines: machines}.Name()),
		"The stacked placement is feasible and its large-job height is within 20% of OPT, yet the final makespan blows up exactly as Figure 1 depicts.")
	return t, nil
}

// stackedLargeDemo builds the pathological placement of Figure 1: large
// jobs are first-fit packed onto as few machines as possible (allowed up
// to (1+slack)*LB), then the small jobs are placed with bag-LPT.
func stackedLargeDemo(in *sched.Instance, slack float64) (*sched.Schedule, error) {
	lb := sched.LowerBound(in)
	capacity := (1 + slack) * lb
	s := sched.NewSchedule(in)
	loads := make([]float64, in.Machines)
	bagOn := make([]map[int]bool, in.Machines)
	for i := range bagOn {
		bagOn[i] = make(map[int]bool)
	}
	// Large jobs: at least half the lower bound.
	var smallIdx []int
	for _, ji := range in.SortedJobIdxDesc() {
		job := in.Jobs[ji]
		if job.Size < lb/2 {
			smallIdx = append(smallIdx, ji)
			continue
		}
		placed := false
		for m := 0; m < in.Machines; m++ {
			if bagOn[m][job.Bag] || loads[m]+job.Size > capacity {
				continue
			}
			s.Machine[ji] = m
			loads[m] += job.Size
			bagOn[m][job.Bag] = true
			placed = true
			break
		}
		if !placed {
			// Least-loaded conflict-free machine.
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
				return nil, fmt.Errorf("experiments: stacked demo stuck on job %d", ji)
			}
			s.Machine[ji] = best
			loads[best] += job.Size
			bagOn[best][job.Bag] = true
		}
	}
	// Small jobs by bag-LPT on the induced loads.
	byBag := make(map[int][]greedy.Item)
	var bagOrder []int
	for _, ji := range smallIdx {
		b := in.Jobs[ji].Bag
		if _, ok := byBag[b]; !ok {
			bagOrder = append(bagOrder, b)
		}
		byBag[b] = append(byBag[b], greedy.Item{Key: ji, Size: in.Jobs[ji].Size})
	}
	bags := make([][]greedy.Item, 0, len(bagOrder))
	for _, b := range bagOrder {
		bags = append(bags, byBag[b])
	}
	asg, err := greedy.AssignBagLPT(loads, bags)
	if err != nil {
		return nil, err
	}
	for bi, items := range bags {
		for ii, it := range items {
			s.Machine[it.Key] = asg[bi][ii]
		}
	}
	return s, nil
}

// runF2 reproduces Figure 2: the instance transformation splits every
// non-priority bag into a large-only and a small-only bag and adds one
// filler per large/medium job.
func runF2(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "F2",
		Title:  "Figure 2 — instance transformation accounting",
		Claim:  "every non-priority bag splits in two (large-only + small-only); #fillers equals #large+#medium jobs of split bags; the job count at most doubles",
		Header: []string{"family", "bags I", "bags I'", "jobs I", "jobs I'", "fillers", "dropped medium", "fillers==ML of split bags", "jobs I' <= 2*jobs I"},
	}
	n := 60
	if cfg.Quick {
		n = 30
	}
	for _, fam := range workload.Families() {
		// Many small bags so that non-priority bags exist; the priority
		// constant is capped (see classify.Options.BPrimeOverride).
		in := workload.MustGenerate(workload.Spec{Family: fam, Machines: n / 3, Jobs: n, Bags: n / 2, Seed: 11})
		// Scale by the bag-LPT makespan so sizes are ~OPT-relative.
		ub, err := greedy.BagLPT(in)
		if err != nil {
			return nil, err
		}
		scaled, _ := round.ScaleRound(in, ub.Makespan(), 0.5)
		info, err := classify.Classify(scaled, 0.5, classify.Options{BPrimeOverride: 2})
		if err != nil {
			return nil, err
		}
		tr := transform.Apply(scaled, info)
		fillers, dropped, mlSplit := 0, 0, 0
		for j := range tr.Inst.Jobs {
			if tr.FillerBag[j] >= 0 {
				fillers++
			}
		}
		for b, list := range tr.DroppedMedium {
			dropped += len(list)
			_ = b
		}
		// ML jobs of split bags that have small jobs.
		hasSmall := make(map[int]bool)
		for j, job := range scaled.Jobs {
			if info.JobClass[j] == classify.Small && !info.Priority[job.Bag] {
				hasSmall[job.Bag] = true
			}
		}
		for j, job := range scaled.Jobs {
			if info.JobClass[j] != classify.Small && !info.Priority[job.Bag] && hasSmall[job.Bag] {
				mlSplit++
			}
		}
		t.Rows = append(t.Rows, []string{
			string(fam),
			d(in.NumBags), d(tr.Inst.NumBags),
			d(len(in.Jobs)), d(len(tr.Inst.Jobs)),
			d(fillers), d(dropped),
			yes(fillers == mlSplit),
			yes(len(tr.Inst.Jobs) <= 2*len(in.Jobs)),
		})
	}
	return t, nil
}

// runF3 verifies Lemma 2 constructively (the situation depicted in
// Figure 3): from any feasible schedule S of I we build the schedule S'
// of I' from the lemma's proof and check its makespan is at most
// (1+eps)*C.
func runF3(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "F3",
		Title:  "Figure 3 / Lemma 2 — transformation costs at most a (1+eps) factor",
		Claim:  "if I has a schedule of makespan C then I' has one of makespan (1+eps)C; the proof's construction achieves it",
		Header: []string{"family", "eps", "C (schedule of I)", "makespan S' of I'", "ratio", "bound 1+eps", "ok"},
	}
	seeds := cfg.seeds(3, 1)
	for _, fam := range workload.Families() {
		for seed := 0; seed < seeds; seed++ {
			for _, eps := range []float64{0.5, 0.33} {
				in := workload.MustGenerate(workload.Spec{Family: fam, Machines: 12, Jobs: 36, Bags: 18, Seed: int64(21 + seed)})
				s, err := greedy.BagLPT(in)
				if err != nil {
					return nil, err
				}
				c := s.Makespan()
				scaled, _ := round.ScaleRound(in, c, eps)
				info, err := classify.Classify(scaled, eps, classify.Options{BPrimeOverride: 2})
				if err != nil {
					return nil, err
				}
				tr := transform.Apply(scaled, info)
				sPrime, err := lemma2Construct(tr, s)
				if err != nil {
					return nil, err
				}
				mk := sPrime.Makespan()
				// The schedule of I scaled by C has makespan <= 1 in
				// rounded terms (1+eps); the lemma bound is relative to
				// the rounded schedule's height.
				base := scaledMakespan(tr, s)
				ratio := mk / base
				ok := ratio <= 1+eps+1e-9
				if seed == 0 {
					t.Rows = append(t.Rows, []string{
						string(fam), f3(eps), f4(base), f4(mk), f4(ratio), f4(1 + eps), yes(ok),
					})
				}
				if !ok {
					t.Notes = append(t.Notes, fmt.Sprintf("VIOLATION: %s seed %d eps %.2f ratio %.4f", fam, seed, eps, ratio))
				}
			}
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("Checked %d (family, seed, eps) combinations; rows show seed 0.", len(workload.Families())*seeds*2))
	return t, nil
}

// lemma2Construct builds S' from S exactly as in the proof of Lemma 2:
// every surviving job keeps its machine and every filler goes to the
// machine of the large/medium job it substitutes. Dropped medium jobs of
// I simply disappear (they are not jobs of I').
func lemma2Construct(tr *transform.Transformed, s *sched.Schedule) (*sched.Schedule, error) {
	out := sched.NewSchedule(tr.Inst)
	for j := range tr.Inst.Jobs {
		switch {
		case tr.OrigJob[j] >= 0:
			out.Machine[j] = s.Machine[tr.OrigJob[j]]
		case tr.FillerFor[j] >= 0:
			out.Machine[j] = s.Machine[tr.FillerFor[j]]
		default:
			return nil, fmt.Errorf("experiments: job %d has neither origin nor filler source", j)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: lemma-2 construction infeasible: %w", err)
	}
	return out, nil
}

// scaledMakespan computes the makespan of schedule s of the original
// instance measured in the scaled+rounded sizes of tr.Orig.
func scaledMakespan(tr *transform.Transformed, s *sched.Schedule) float64 {
	loads := make([]float64, tr.Orig.Machines)
	for j, m := range s.Machine {
		loads[m] += tr.Orig.Jobs[j].Size
	}
	max := 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}
