package bagsched

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/workload"
)

func specInstance(t testing.TB) *Instance {
	t.Helper()
	return workload.MustGenerate(workload.Spec{
		Family: "geometric", Machines: 4, Jobs: 16, Bags: 6, Seed: 21,
	})
}

// TestSpecMatchesOptions: the struct form and the variadic form of the
// same configuration produce bit-identical results.
func TestSpecMatchesOptions(t *testing.T) {
	in := specInstance(t)
	viaOpts, err := SolveEPTAS(in, 0.3,
		WithBackend(BackendCfgDP), WithMaxGuesses(30))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Backend: BackendCfgDP, MaxGuesses: 30}
	viaSpec, err := SolveEPTAS(in, 0.3, spec.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaOpts.Schedule.Machine, viaSpec.Schedule.Machine) {
		t.Fatal("Spec.Options diverged from the equivalent With* options")
	}
	if !reflect.DeepEqual(viaOpts.Stats.Decision(), viaSpec.Stats.Decision()) {
		t.Fatal("Spec.Options decision stats diverged")
	}
}

// TestSpecAdaptiveFlow: the public adaptive surface end to end — train
// a model, set a tight deadline, get the degraded heuristic answer with
// its bound; then refuse on a quality floor.
func TestSpecAdaptiveFlow(t *testing.T) {
	in := specInstance(t)
	m := NewPlanModel()
	size := plan.SizeClass(len(in.Jobs))
	for _, eps := range append([]float64{0.3}, plan.EpsGrid...) {
		m.Observe(plan.Key{Family: "bags", Size: size, Rung: plan.RungEPTAS,
			EpsIdx: plan.EpsIndex(eps), Backend: "default"}, 250*time.Millisecond)
	}

	res, err := SolveEPTAS(in, 0.3,
		WithPlanner(m), WithAdaptive(), WithDeadline(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.Rung != plan.RungLPT || !res.Quality.Degraded {
		t.Fatalf("tight deadline should land on the LPT rung: %+v", res.Quality)
	}
	if res.Makespan > res.Quality.Bound*res.LowerBound {
		t.Fatalf("answer violates its reported bound: %g > %g*%g",
			res.Makespan, res.Quality.Bound, res.LowerBound)
	}

	_, err = SolveEPTAS(in, 0.3, WithPlanner(m), WithAdaptive(),
		WithDeadline(5*time.Millisecond), WithQualityFloor(1.3))
	if !errors.Is(err, ErrUnattainable) {
		t.Fatalf("quality floor under a tight deadline: want ErrUnattainable, got %v", err)
	}
}

// TestPlanModelSnapshotPublic: the export/import wrappers round-trip a
// model through the public API.
func TestPlanModelSnapshotPublic(t *testing.T) {
	m := NewPlanModel()
	m.Observe(plan.Key{Family: "bags", Size: 4, Rung: plan.RungEPTAS,
		EpsIdx: plan.EpsIndex(0.3), Backend: "bnb"}, 10*time.Millisecond)
	var buf bytes.Buffer
	if err := ExportPlanModel(m, &buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewPlanModel()
	if err := ImportPlanModel(fresh, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Snapshot(); st.Cells != 1 {
		t.Fatalf("snapshot round trip lost cells: %+v", st)
	}
}
