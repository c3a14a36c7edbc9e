package sched

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mkInstance(machines int, jobs ...Job) *Instance {
	in := NewInstance(machines)
	for _, j := range jobs {
		in.AddJob(j.Size, j.Bag)
	}
	return in
}

func TestAddJobExtendsBags(t *testing.T) {
	in := NewInstance(2)
	in.AddJob(1, 0)
	in.AddJob(1, 4)
	if in.NumBags != 5 {
		t.Errorf("NumBags = %d, want 5", in.NumBags)
	}
	if in.Jobs[1].ID != 1 {
		t.Errorf("job ID = %d, want 1", in.Jobs[1].ID)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Instance)
		wantErr bool
	}{
		{"valid", func(in *Instance) {}, false},
		{"zero machines", func(in *Instance) { in.Machines = 0 }, true},
		{"negative size", func(in *Instance) { in.Jobs[0].Size = -1 }, true},
		{"zero size", func(in *Instance) { in.Jobs[0].Size = 0 }, true},
		{"bag out of range", func(in *Instance) { in.Jobs[0].Bag = 99 }, true},
		{"negative bag", func(in *Instance) { in.Jobs[0].Bag = -1 }, true},
		{"duplicate id", func(in *Instance) { in.Jobs[1].ID = in.Jobs[0].ID }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := mkInstance(2, Job{Size: 1, Bag: 0}, Job{Size: 2, Bag: 1})
			tt.mutate(in)
			err := in.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestFeasible(t *testing.T) {
	in := mkInstance(2, Job{Size: 1, Bag: 0}, Job{Size: 1, Bag: 0}, Job{Size: 1, Bag: 0})
	if err := in.Feasible(); err == nil {
		t.Error("expected infeasibility: bag 0 has 3 jobs, 2 machines")
	}
	in2 := mkInstance(3, Job{Size: 1, Bag: 0}, Job{Size: 1, Bag: 0}, Job{Size: 1, Bag: 0})
	if err := in2.Feasible(); err != nil {
		t.Errorf("unexpected infeasibility: %v", err)
	}
}

func TestAggregates(t *testing.T) {
	in := mkInstance(4,
		Job{Size: 1, Bag: 0}, Job{Size: 2, Bag: 0}, Job{Size: 3, Bag: 1})
	if got := in.TotalArea(); got != 6 {
		t.Errorf("TotalArea = %g", got)
	}
	if got := in.MaxJobSize(); got != 3 {
		t.Errorf("MaxJobSize = %g", got)
	}
	if got := in.BagCounts(); got[0] != 2 || got[1] != 1 {
		t.Errorf("BagCounts = %v", got)
	}
	byBag := in.JobsByBag()
	if len(byBag[0]) != 2 || byBag[0][0] != 0 || byBag[0][1] != 1 || byBag[1][0] != 2 {
		t.Errorf("JobsByBag = %v", byBag)
	}
}

func TestSortedJobIdxDesc(t *testing.T) {
	in := mkInstance(2, Job{Size: 1, Bag: 0}, Job{Size: 3, Bag: 0}, Job{Size: 3, Bag: 1}, Job{Size: 2, Bag: 1})
	got := in.SortedJobIdxDesc()
	want := []int{1, 2, 3, 0} // 3 (id1), 3 (id2), 2, 1
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedJobIdxDesc = %v, want %v", got, want)
		}
	}
}

func TestLowerBound(t *testing.T) {
	tests := []struct {
		name string
		in   *Instance
		want float64
	}{
		{"empty", NewInstance(3), 0},
		{"max job dominates", mkInstance(4, Job{Size: 10, Bag: 0}, Job{Size: 1, Bag: 1}), 10},
		{"area dominates", mkInstance(2, Job{Size: 3, Bag: 0}, Job{Size: 3, Bag: 1}, Job{Size: 3, Bag: 2}, Job{Size: 3, Bag: 3}), 6},
		{"pairing dominates", mkInstance(2,
			Job{Size: 4, Bag: 0}, Job{Size: 4, Bag: 1}, Job{Size: 3.5, Bag: 2}), 7.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := LowerBound(tt.in); got != tt.want {
				t.Errorf("LowerBound = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestScheduleLoadsAndMakespan(t *testing.T) {
	in := mkInstance(2, Job{Size: 1, Bag: 0}, Job{Size: 2, Bag: 1}, Job{Size: 4, Bag: 0})
	s := NewSchedule(in)
	s.Machine = []int{0, 0, 1}
	loads := s.Loads()
	if loads[0] != 3 || loads[1] != 4 {
		t.Errorf("Loads = %v", loads)
	}
	if s.Makespan() != 4 {
		t.Errorf("Makespan = %g", s.Makespan())
	}
}

func TestScheduleConflicts(t *testing.T) {
	in := mkInstance(2, Job{Size: 1, Bag: 0}, Job{Size: 2, Bag: 0}, Job{Size: 1, Bag: 1})
	s := NewSchedule(in)
	s.Machine = []int{0, 0, 0}
	cs := s.Conflicts()
	if len(cs) != 1 {
		t.Fatalf("Conflicts = %v, want 1", cs)
	}
	if cs[0].JobA != 0 || cs[0].JobB != 1 || cs[0].Bag != 0 || cs[0].Machine != 0 {
		t.Errorf("conflict = %+v", cs[0])
	}
	if err := s.Validate(); err == nil {
		t.Error("Validate should fail on conflicting schedule")
	}
	s.Machine = []int{0, 1, 0}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestScheduleValidateUnassigned(t *testing.T) {
	in := mkInstance(2, Job{Size: 1, Bag: 0})
	s := NewSchedule(in)
	if err := s.Validate(); err == nil {
		t.Error("unassigned job should fail validation")
	}
	s.Machine[0] = 5
	if err := s.Validate(); err == nil {
		t.Error("machine out of range should fail validation")
	}
}

func TestTripleConflictCount(t *testing.T) {
	in := mkInstance(2, Job{Size: 1, Bag: 0}, Job{Size: 1, Bag: 0}, Job{Size: 1, Bag: 0})
	in.Machines = 2
	s := NewSchedule(in)
	s.Machine = []int{0, 0, 0}
	if got := len(s.Conflicts()); got != 3 { // C(3,2) pairs
		t.Errorf("conflicts = %d, want 3", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	in := mkInstance(2, Job{Size: 1, Bag: 0})
	cl := in.Clone()
	cl.Jobs[0].Size = 99
	if in.Jobs[0].Size == 99 {
		t.Error("Clone shares job storage")
	}
	s := NewSchedule(in)
	s.Machine[0] = 0
	sc := s.Clone()
	sc.Machine[0] = 1
	if s.Machine[0] == 1 {
		t.Error("Schedule.Clone shares assignment storage")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := mkInstance(3, Job{Size: 1.5, Bag: 0}, Job{Size: 2.25, Bag: 2})
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Machines != in.Machines || got.NumBags != in.NumBags || len(got.Jobs) != len(in.Jobs) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, in)
	}
	for i := range got.Jobs {
		if got.Jobs[i] != in.Jobs[i] {
			t.Errorf("job %d = %+v, want %+v", i, got.Jobs[i], in.Jobs[i])
		}
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	bad := bytes.NewBufferString(`{"machines": 0, "jobs": []}`)
	if _, err := ReadInstance(bad); err == nil {
		t.Error("expected error for zero machines")
	}
	bad2 := bytes.NewBufferString(`{"machines": 2, "jobs": [{"id":0,"size":-1,"bag":0}]}`)
	if _, err := ReadInstance(bad2); err == nil {
		t.Error("expected error for negative size")
	}
}

func TestScheduleJSONHasStats(t *testing.T) {
	in := mkInstance(2, Job{Size: 1, Bag: 0}, Job{Size: 2, Bag: 1})
	s := NewSchedule(in)
	s.Machine = []int{0, 1}
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"makespan", "loads", "assignment"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("schedule JSON missing %q: %s", want, out)
		}
	}
}

// Property: Loads sums to total area and Makespan >= LowerBound holds for
// any valid random schedule.
func TestScheduleInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(5)
		in := NewInstance(m)
		n := rng.Intn(20)
		for i := 0; i < n; i++ {
			in.AddJob(0.1+rng.Float64(), rng.Intn(6))
		}
		s := NewSchedule(in)
		for i := range s.Machine {
			s.Machine[i] = rng.Intn(m)
		}
		loads := s.Loads()
		sum := 0.0
		for _, l := range loads {
			sum += l
		}
		if math.Abs(sum-in.TotalArea()) > 1e-9 {
			return false
		}
		// A valid (conflict-free, fully assigned) schedule's makespan is
		// at least the area and max-job bounds.
		if len(s.Conflicts()) == 0 && n > 0 {
			if s.Makespan()+1e-9 < in.TotalArea()/float64(m) {
				return false
			}
			if s.Makespan()+1e-9 < in.MaxJobSize() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestValidateMatchesConflicts: Validate's map-free conflict check gives
// the same verdict and the same error text as one derived from
// Conflicts, on random schedules with and without conflicts.
func TestValidateMatchesConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conflicted := 0
	for trial := 0; trial < 2000; trial++ {
		in := NewInstance(1 + rng.Intn(6))
		bags := 1 + rng.Intn(8)
		for j := rng.Intn(24); j > 0; j-- {
			in.AddJob(1+rng.Float64(), rng.Intn(bags))
		}
		s := &Schedule{Inst: in, Machine: make([]int, len(in.Jobs))}
		for i := range s.Machine {
			s.Machine[i] = rng.Intn(in.Machines)
		}
		var want string
		if c := s.Conflicts(); len(c) > 0 {
			conflicted++
			want = fmt.Sprintf("sched: %d bag-constraint violations, first: jobs %d,%d (bag %d) on machine %d",
				len(c), c[0].JobA, c[0].JobB, c[0].Bag, c[0].Machine)
		}
		var got string
		if err := s.Validate(); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Fatalf("trial %d: Validate = %q, want %q (schedule %v of %+v)", trial, got, want, s.Machine, in.Jobs)
		}
	}
	if conflicted == 0 || conflicted == 2000 {
		t.Fatalf("%d of 2000 random schedules had conflicts; want both kinds", conflicted)
	}
}
