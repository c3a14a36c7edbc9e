package batch

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/sched"
)

func queueInstance(t *testing.T) *sched.Instance {
	t.Helper()
	in := sched.NewInstance(3)
	sizes := []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2}
	for i, s := range sizes {
		in.AddJob(s, i%4)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestQueueSolves(t *testing.T) {
	q := NewQueue(2, 2)
	in := queueInstance(t)
	want, err := core.Solve(in, core.Options{Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, admitted := q.Do(context.Background(), Task{Instance: in, Options: core.Options{Eps: 0.5}})
			if !admitted {
				// Admission rejections are legal under contention; they
				// must come with no outcome at all.
				if out.Result != nil || out.Err != nil {
					t.Errorf("rejected Do returned an outcome: %+v", out)
				}
				return
			}
			if out.Err != nil {
				t.Errorf("admitted Do failed: %v", out.Err)
				return
			}
			if out.Result.Makespan != want.Makespan {
				t.Errorf("makespan %.17g, want %.17g", out.Result.Makespan, want.Makespan)
			}
		}()
	}
	wg.Wait()
	if q.Queued() != 0 || q.Running() != 0 {
		t.Fatalf("gauges not drained: queued=%d running=%d", q.Queued(), q.Running())
	}
}

// blockingTask returns a task whose solve blocks deterministically
// inside the MILP oracle (on the Progress hook) until release is
// closed, keeping its worker slot occupied for as long as the test
// needs.
func blockingTask(in *sched.Instance, release <-chan struct{}) Task {
	// Progress is a branch-and-bound hook, so the solve pins bnb: under
	// the default policy cfgdp would decide the guess without it.
	opt := core.Options{Eps: 0.5, Oracle: oracle.Selection{Backend: oracle.KindBnB}}
	opt.MILP.Progress = func(nodes, pivots int) error {
		<-release
		return nil
	}
	return Task{Instance: in, Options: opt}
}

// TestQueueAdmissionRejects fills every worker slot and the whole queue
// with blocked solves, then checks the next arrival is refused at
// admission immediately.
func TestQueueAdmissionRejects(t *testing.T) {
	q := NewQueue(1, 1)
	in := queueInstance(t)

	// Occupy the single worker slot (blocked inside the oracle) and the
	// single queue slot (waiting for the worker).
	block := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Do(context.Background(), blockingTask(in, block))
		}()
	}
	// Wait for both to be admitted (one running, one queued).
	deadline := time.Now().Add(5 * time.Second)
	for q.Running()+q.Queued() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("occupants not admitted: running=%d queued=%d", q.Running(), q.Queued())
		}
		time.Sleep(time.Millisecond)
	}

	out, admitted := q.Do(context.Background(), Task{Instance: in, Options: core.Options{Eps: 0.5}})
	if admitted {
		t.Fatalf("third solve admitted with a full queue: %+v", out)
	}
	if q.Rejected() != 1 {
		t.Fatalf("Rejected() = %d, want 1", q.Rejected())
	}
	close(block)
	wg.Wait()
}

// TestQueueContextWhileQueued: a context that dies while the task waits
// for a worker slot returns ctx.Err() as an admitted outcome.
func TestQueueContextWhileQueued(t *testing.T) {
	q := NewQueue(1, 1)
	in := queueInstance(t)
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.Do(context.Background(), blockingTask(in, block))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for q.Running() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("occupant never started running")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	out, admitted := q.Do(ctx, Task{Instance: in, Options: core.Options{Eps: 0.5}})
	if !admitted {
		t.Fatalf("second solve should queue, not be rejected")
	}
	if !errors.Is(out.Err, context.DeadlineExceeded) {
		t.Fatalf("queued solve error = %v, want DeadlineExceeded", out.Err)
	}
	close(block)
	<-done
}

func TestQueueDefaults(t *testing.T) {
	q := NewQueue(0, -1)
	if q.Workers() < 1 {
		t.Fatalf("Workers() = %d", q.Workers())
	}
	if q.Depth() != 4*q.Workers() {
		t.Fatalf("Depth() = %d, want 4x workers (%d)", q.Depth(), 4*q.Workers())
	}
}
