package batch

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workload"
)

func batchTasks(t testing.TB, n int) []Task {
	t.Helper()
	tasks := make([]Task, n)
	for i := range tasks {
		in, err := workload.Generate(workload.Spec{
			Family: workload.Bimodal, Machines: 6, Jobs: 24, Bags: 8, Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		tasks[i] = Task{Instance: in, Options: core.Options{Eps: 0.5}}
	}
	return tasks
}

// TestSolveInputOrder checks that outcomes line up with their tasks in
// input order regardless of completion order.
func TestSolveInputOrder(t *testing.T) {
	tasks := batchTasks(t, 16)
	out := NewPool(4).Solve(tasks)
	if len(out) != len(tasks) {
		t.Fatalf("got %d outcomes for %d tasks", len(out), len(tasks))
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("task %d: %v", i, o.Err)
		}
		if o.Result.Schedule.Inst != tasks[i].Instance {
			t.Errorf("outcome %d does not belong to task %d", i, i)
		}
	}
}

// TestSolveMatchesSequential checks the pool's core guarantee: every
// per-instance result is bit-for-bit identical to a direct sequential
// core.Solve call.
func TestSolveMatchesSequential(t *testing.T) {
	tasks := batchTasks(t, 16)
	out := NewPool(0).Solve(tasks)
	for i, task := range tasks {
		want, err := core.Solve(task.Instance, core.Options{Eps: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		got := out[i]
		if got.Err != nil {
			t.Fatalf("task %d: %v", i, got.Err)
		}
		if got.Result.Makespan != want.Makespan {
			t.Errorf("task %d: makespan %v (pool) != %v (sequential)", i, got.Result.Makespan, want.Makespan)
		}
		if !reflect.DeepEqual(got.Result.Stats.Decision(), want.Stats.Decision()) {
			t.Errorf("task %d: stats diverge:\npool %+v\nseq  %+v", i, got.Result.Stats.Decision(), want.Stats.Decision())
		}
		for j := range want.Schedule.Machine {
			if got.Result.Schedule.Machine[j] != want.Schedule.Machine[j] {
				t.Errorf("task %d: job %d assignment differs", i, j)
				break
			}
		}
	}
}

// TestSolveErrorPropagation checks that a bad task mid-batch yields an
// error in its slot without disturbing its neighbours.
func TestSolveErrorPropagation(t *testing.T) {
	tasks := batchTasks(t, 5)
	// An infeasible instance: more jobs in one bag than machines.
	bad := sched.NewInstance(2)
	for i := 0; i < 3; i++ {
		bad.AddJob(1, 0)
	}
	tasks[2] = Task{Instance: bad, Options: core.Options{Eps: 0.5}}
	out := NewPool(3).Solve(tasks)
	for i, o := range out {
		if i == 2 {
			if o.Err == nil {
				t.Error("infeasible task 2 produced no error")
			}
			if o.Result != nil {
				t.Error("infeasible task 2 produced a result")
			}
			continue
		}
		if o.Err != nil {
			t.Errorf("task %d: %v", i, o.Err)
		}
	}
}

// TestSolveEmptyAndSmall covers the degenerate shapes: empty batch, a
// batch smaller than the worker count, and a single-worker pool.
func TestSolveEmptyAndSmall(t *testing.T) {
	if out := NewPool(8).Solve(nil); len(out) != 0 {
		t.Errorf("empty batch produced %d outcomes", len(out))
	}
	out := NewPool(8).Solve(batchTasks(t, 2))
	for i, o := range out {
		if o.Err != nil {
			t.Errorf("task %d: %v", i, o.Err)
		}
	}
	out = NewPool(1).Solve(batchTasks(t, 3))
	for i, o := range out {
		if o.Err != nil {
			t.Errorf("task %d: %v", i, o.Err)
		}
	}
}

// TestNewPoolWorkers checks worker-count defaulting.
func TestNewPoolWorkers(t *testing.T) {
	if got := NewPool(3).Workers(); got != 3 {
		t.Errorf("NewPool(3).Workers() = %d", got)
	}
	for _, w := range []int{0, -1} {
		if got := NewPool(w).Workers(); got != runtime.GOMAXPROCS(0) {
			t.Errorf("NewPool(%d).Workers() = %d, want GOMAXPROCS", w, got)
		}
	}
}

// TestPoolConcurrentUse checks that one Pool serves overlapping Solve
// calls safely (exercised under -race).
func TestPoolConcurrentUse(t *testing.T) {
	p := NewPool(4)
	tasks := batchTasks(t, 6)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range p.Solve(tasks) {
				if o.Err != nil {
					t.Error(o.Err)
				}
			}
		}()
	}
	wg.Wait()
}
