package bagsched

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

// bimodalBatch generates n distinct bimodal instances (the EX-T2 family)
// for the batch tests and benchmarks.
func bimodalBatch(tb testing.TB, n int) []*Instance {
	tb.Helper()
	ins := make([]*Instance, n)
	for i := range ins {
		in, err := workload.Generate(workload.Spec{
			Family: workload.Bimodal, Machines: 6, Jobs: 24, Bags: 8, Seed: int64(1000 + i),
		})
		if err != nil {
			tb.Fatal(err)
		}
		ins[i] = in
	}
	return ins
}

// TestSolveBatchOrderAndDeterminism checks the public batch API: outcomes
// arrive in input order and every makespan is byte-identical to the
// sequential path.
func TestSolveBatchOrderAndDeterminism(t *testing.T) {
	ins := bimodalBatch(t, 16)
	outs := SolveBatch(ins, 0.5)
	if len(outs) != len(ins) {
		t.Fatalf("got %d outcomes for %d instances", len(outs), len(ins))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("instance %d: %v", i, o.Err)
		}
		if o.Result.Schedule.Inst != ins[i] {
			t.Errorf("outcome %d is not for instance %d", i, i)
		}
		seq, err := SolveEPTAS(ins[i], 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if o.Result.Makespan != seq.Makespan {
			t.Errorf("instance %d: batch makespan %v != sequential %v", i, o.Result.Makespan, seq.Makespan)
		}
	}
}

// TestPoolReuse checks a sized pool across repeated calls.
func TestPoolReuse(t *testing.T) {
	p := NewPool(2)
	if p.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", p.Workers())
	}
	ins := bimodalBatch(t, 4)
	first := p.SolveEPTAS(ins, 0.5)
	second := p.SolveEPTAS(ins, 0.5)
	for i := range ins {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("instance %d: %v / %v", i, first[i].Err, second[i].Err)
		}
		if first[i].Result.Makespan != second[i].Result.Makespan {
			t.Errorf("instance %d: pool reuse changed makespan", i)
		}
	}
}

// TestConcurrentSolveEPTASDeterministic checks that concurrent SolveEPTAS
// calls on the same instance are independent and identical (exercised
// under -race).
func TestConcurrentSolveEPTASDeterministic(t *testing.T) {
	in := bimodalBatch(t, 1)[0]
	want, err := SolveEPTAS(in, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	makespans := make([]float64, 8)
	for g := range makespans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := SolveEPTAS(in, 0.5)
			if err != nil {
				t.Error(err)
				return
			}
			makespans[g] = res.Makespan
		}()
	}
	wg.Wait()
	for g, ms := range makespans {
		if ms != want.Makespan {
			t.Errorf("goroutine %d: makespan %v, want %v", g, ms, want.Makespan)
		}
	}
}
