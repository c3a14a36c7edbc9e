package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

func TestDecodeStrict(t *testing.T) {
	var req SolveRequest
	good := `{"instance": {"machines": 2, "jobs": []}, "eps": 0.5}`
	if err := Decode(strings.NewReader(good), &req); err != nil {
		t.Fatal(err)
	}
	if req.Instance == nil || req.Instance.Machines != 2 || req.Eps != 0.5 {
		t.Fatalf("decoded %+v", req)
	}
	if err := Decode(strings.NewReader(`{"epss": 0.5}`), &SolveRequest{}); err == nil {
		t.Fatal("unknown field accepted")
	}
	if err := Decode(strings.NewReader(good+` {}`), &SolveRequest{}); !errors.Is(err, ErrTrailingData) {
		t.Fatalf("trailing data: got %v, want ErrTrailingData", err)
	}
	if err := Unmarshal([]byte(good), &SolveRequest{}); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &BatchResponse{
		Outcomes: []BatchItem{
			{SolveResult: &SolveResult{Makespan: 1.5, Assignment: []int{0, 1}, Backend: "bnb"}},
			{Error: "queue full"},
		},
		ElapsedUS: 42,
	}
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out BatchResponse
	if err := Decode(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Outcomes) != 2 || out.Outcomes[0].Makespan != 1.5 || out.Outcomes[1].Error != "queue full" || out.ElapsedUS != 42 {
		t.Fatalf("round trip lost data: %+v", out)
	}
	// An error item must not materialize a result and vice versa.
	if out.Outcomes[1].SolveResult != nil {
		t.Fatal("error item decoded with a non-nil result")
	}
}

func TestBatchItemView(t *testing.T) {
	b := &BatchRequest{
		Instances: []*sched.Instance{sched.NewInstance(2), sched.NewInstance(3)},
		SolveSpec: SolveSpec{
			Eps:           0.25,
			Backend:       "cfgdp",
			Family:        "identical",
			TimeoutMS:     100,
			NoCache:       true,
			OracleWorkers: 2,
		},
	}
	it := b.Item(1)
	if it.Instance != b.Instances[1] || it.Eps != 0.25 || it.Backend != "cfgdp" ||
		it.Family != "identical" || it.TimeoutMS != 100 || !it.NoCache || it.OracleWorkers != 2 {
		t.Fatalf("item view %+v", it)
	}
}

func TestFromResult(t *testing.T) {
	in := sched.NewInstance(2)
	in.AddJob(1.0, 0)
	in.AddJob(0.5, 1)
	res := &core.Result{
		Makespan:   1.0,
		LowerBound: 0.75,
		Schedule:   &sched.Schedule{Inst: in, Machine: []int{0, 1}},
		Stats: core.Stats{
			Guesses: 4, CacheHits: 1, CacheMisses: 3,
			Fallback: false, OracleBackend: "cfgdp",
		},
	}
	sr := FromResult(res, false, 1500*time.Microsecond)
	if sr.Makespan != 1.0 || sr.LowerBound != 0.75 || sr.Guesses != 4 ||
		sr.CacheHits != 1 || sr.CacheMisses != 3 || sr.Backend != "cfgdp" ||
		sr.ElapsedUS != 1500 {
		t.Fatalf("shaped %+v", sr)
	}
	if len(sr.Assignment) != 2 || len(sr.Loads) != 2 {
		t.Fatalf("assignment/loads %v / %v", sr.Assignment, sr.Loads)
	}
}
