package sched

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func deltaBase() *Instance {
	in := NewInstance(3)
	in.AddJob(4, 0) // id 0
	in.AddJob(3, 1) // id 1
	in.AddJob(2, 0) // id 2
	in.AddJob(1, 2) // id 3
	return in
}

func TestDeltaApplyEdits(t *testing.T) {
	base := deltaBase()
	d := Delta{
		Remove: []JobID{1},
		Resize: []Resize{{ID: 0, Size: 5}},
		Rebag:  []Rebag{{ID: 3, Bag: 4}},
		Add:    []Job{{ID: 10, Size: 2.5, Bag: 1}},
	}
	post, churn, err := d.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if base.Jobs[0].Size != 4 || len(base.Jobs) != 4 {
		t.Fatal("Apply mutated its base")
	}
	if len(post.Jobs) != 4 {
		t.Fatalf("post has %d jobs, want 4", len(post.Jobs))
	}
	if post.Jobs[0].Size != 5 || post.Jobs[0].ID != 0 {
		t.Errorf("resize missing: %+v", post.Jobs[0])
	}
	if post.Jobs[2].Bag != 4 || post.NumBags != 5 {
		t.Errorf("rebag missing: %+v numBags=%d", post.Jobs[2], post.NumBags)
	}
	if post.Jobs[3].ID != 10 {
		t.Errorf("add missing: %+v", post.Jobs[3])
	}
	wantPrior := []int{0, 2, 3, -1}
	wantChanged := []bool{true, false, true, true}
	for i := range wantPrior {
		if churn.PriorIndex[i] != wantPrior[i] || churn.Changed[i] != wantChanged[i] {
			t.Errorf("churn[%d] = (%d,%v), want (%d,%v)",
				i, churn.PriorIndex[i], churn.Changed[i], wantPrior[i], wantChanged[i])
		}
	}
	if err := post.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaApplyMachines(t *testing.T) {
	post, _, err := (&Delta{Machines: 2}).Apply(deltaBase())
	if err != nil {
		t.Fatal(err)
	}
	if post.Machines != 5 {
		t.Errorf("machines = %d, want 5", post.Machines)
	}
	post, _, err = (&Delta{Machines: -2}).Apply(deltaBase())
	if err != nil {
		t.Fatal(err)
	}
	if post.Machines != 1 {
		t.Errorf("machines = %d, want 1", post.Machines)
	}
	if _, _, err := (&Delta{Machines: -3}).Apply(deltaBase()); err == nil {
		t.Error("emptying the machine set must fail")
	}
}

func TestDeltaApplySpeeds(t *testing.T) {
	base := NewRelatedInstance([]float64{1, 2, 4})
	base.AddJob(3, 0)
	post, _, err := (&Delta{Machines: 1, AddSpeeds: []float64{8}}).Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(post.Speeds) != 4 || post.Speeds[3] != 8 {
		t.Errorf("speeds = %v", post.Speeds)
	}
	post, _, err = (&Delta{Machines: -1}).Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(post.Speeds) != 2 {
		t.Errorf("speeds = %v, want 2 entries", post.Speeds)
	}
	if _, _, err := (&Delta{Machines: 1}).Apply(base); err == nil {
		t.Error("adding a machine to a speed instance without a speed must fail")
	}
	if _, _, err := (&Delta{AddSpeeds: []float64{1}}).Apply(deltaBase()); err == nil {
		t.Error("speeds on an identical-machines delta must fail")
	}
}

func TestDeltaApplyRejectsBadEdits(t *testing.T) {
	for name, d := range map[string]Delta{
		"remove-unknown":   {Remove: []JobID{99}},
		"remove-twice":     {Remove: []JobID{1, 1}},
		"resize-unknown":   {Resize: []Resize{{ID: 99, Size: 1}}},
		"resize-removed":   {Remove: []JobID{1}, Resize: []Resize{{ID: 1, Size: 1}}},
		"resize-nonpos":    {Resize: []Resize{{ID: 1, Size: 0}}},
		"resize-twice":     {Resize: []Resize{{ID: 1, Size: 1}, {ID: 1, Size: 2}}},
		"rebag-unknown":    {Rebag: []Rebag{{ID: 99, Bag: 0}}},
		"rebag-negative":   {Rebag: []Rebag{{ID: 1, Bag: -1}}},
		"add-existing-id":  {Add: []Job{{ID: 1, Size: 1, Bag: 0}}},
		"add-nonpos-size":  {Add: []Job{{ID: 10, Size: 0, Bag: 0}}},
		"add-negative-bag": {Add: []Job{{ID: 10, Size: 1, Bag: -1}}},
	} {
		if _, _, err := d.Apply(deltaBase()); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDeltaApplyReaddRemovedID(t *testing.T) {
	// Removing a job frees its ID for re-adding (a resize expressed as
	// remove+add).
	d := Delta{Remove: []JobID{2}, Add: []Job{{ID: 2, Size: 9, Bag: 0}}}
	post, churn, err := d.Apply(deltaBase())
	if err != nil {
		t.Fatal(err)
	}
	last := post.Jobs[len(post.Jobs)-1]
	if last.ID != 2 || last.Size != 9 {
		t.Errorf("re-added job = %+v", last)
	}
	if churn.PriorIndex[len(post.Jobs)-1] != -1 {
		t.Error("re-added job must count as new")
	}
}

func TestDeltaEmptyAndJobs(t *testing.T) {
	var d Delta
	if !d.Empty() || d.Jobs() != 0 {
		t.Error("zero delta must be empty")
	}
	d = Delta{Resize: []Resize{{ID: 0, Size: 1}}, Machines: 0}
	if d.Empty() || d.Jobs() != 1 {
		t.Errorf("delta Empty=%v Jobs=%d", d.Empty(), d.Jobs())
	}
	if (&Delta{Machines: 1}).Empty() {
		t.Error("machine delta must not be empty")
	}
}

func TestDeltaApplyValidatesPost(t *testing.T) {
	// Bag 0 gets 3 jobs on 2 machines after a machine removal — still
	// structurally valid; structural invalidity comes from elsewhere.
	// Here: a rebag beyond any sane bag keeps Validate happy (bags
	// extend), so force invalidity via duplicate IDs in the base.
	base := deltaBase()
	base.Jobs[1].ID = 0 // duplicate
	if _, _, err := (&Delta{}).Apply(base); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("expected duplicate-id error, got %v", err)
	}
}

// FuzzDelta drives arbitrary delta documents through ReadDelta and
// Apply on two fixture bases, one with identical and one with related
// machines: neither may panic, and a nil error implies the post-delta
// instance passes Validate and the base is left as it was.
//
//	go test -run '^$' -fuzz FuzzDelta -fuzztime 30s ./internal/sched
func FuzzDelta(f *testing.F) {
	for _, d := range []string{
		`{"add":[{"ID":10,"Size":2.5,"Bag":1}],"remove":[1],"resize":[{"id":0,"size":5}],"rebag":[{"id":3,"bag":4}]}`,
		`{"machines":-2}`,
		`{"machines":2,"add_speeds":[1,0.5]}`,
		`{"machines":1,"add_speeds":[-1]}`,
		`{"remove":[0,0]}`,
		`{"resize":[{"id":99,"size":1}]}`,
		`{"rebag":[{"id":0,"bag":9223372036854775807}]}`,
		`{"add":[{"ID":0,"Size":1,"Bag":0}]}`,
		`{"machines":-9223372036854775808}`,
		`{"nope":1}`,
		`{}`,
	} {
		f.Add([]byte(d))
	}
	related := deltaBase()
	related.Speeds = []float64{1, 2, 4}
	bases := []*Instance{deltaBase(), related}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDelta(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, base := range bases {
			before := *base
			before.Jobs = append([]Job(nil), base.Jobs...)
			before.Speeds = append([]float64(nil), base.Speeds...)
			post, _, err := d.Apply(base)
			if !reflect.DeepEqual(*base, before) {
				t.Fatalf("Apply(%s) changed its base", data)
			}
			if err != nil {
				continue
			}
			if verr := post.Validate(); verr != nil {
				t.Fatalf("Apply(%s) returned an invalid instance: %v", data, verr)
			}
		}
	})
}
