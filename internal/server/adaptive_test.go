package server

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/sched"
)

// trainSlowModel teaches the server's cost model that every eps rung
// for the test instance's size takes latency, so tight deadlines force
// the planner down the ladder deterministically.
func trainSlowModel(s *Server, jobs int, latency time.Duration) {
	size := plan.SizeClass(jobs)
	for _, eps := range append([]float64{0.25}, plan.EpsGrid...) {
		for _, policy := range []oracle.Kind{oracle.KindDefault, oracle.KindBnB, oracle.KindCfgDP} {
			s.Planner().Observe(plan.Key{Family: "bags", Size: size, Rung: plan.RungEPTAS,
				EpsIdx: plan.EpsIndex(eps), Backend: policy.String()}, latency)
		}
	}
}

// TestAdaptiveSolveColdModel: an adaptive request against a cold model
// keeps the requested configuration and answers bit-identically to the
// plain request, with the quality block reporting the eptas rung.
func TestAdaptiveSolveColdModel(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	in := testInstance(t)

	status, plainDoc := postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": in, "eps": 0.25})
	if status != http.StatusOK {
		t.Fatalf("plain status %d: %v", status, plainDoc)
	}
	status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{
		"instance": in,
		"spec": map[string]any{
			"eps": 0.25, "no_cache": true, "adaptive": true, "deadline_ms": 60000,
		},
	})
	if status != http.StatusOK {
		t.Fatalf("adaptive status %d: %v", status, doc)
	}
	if doc["makespan"] != plainDoc["makespan"] {
		t.Fatalf("cold-model adaptive diverged: %v vs %v", doc["makespan"], plainDoc["makespan"])
	}
	q := doc["quality"].(map[string]any)
	if q["rung"] != plan.RungEPTAS || q["eps_used"].(float64) != 0.25 {
		t.Fatalf("quality %v", q)
	}
	if q["degraded"] == true {
		t.Fatalf("cold model must not degrade: %v", q)
	}
	if b := q["bound"].(float64); b != 1.25 && b != 1 {
		t.Fatalf("bound %v, want 1.25 (or 1 if optimal)", b)
	}
}

// TestAdaptiveDegradesAndCounts: a trained model plus a tight deadline
// degrades to the bag-LPT rung, reports its documented bound, and the
// SLO counters show up in /v1/stats.
func TestAdaptiveDegradesAndCounts(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	in := testInstance(t)
	trainSlowModel(s, len(in.Jobs), 200*time.Millisecond)

	status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{
		"instance": in, "eps": 0.25, "adaptive": true, "deadline_ms": 5,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, doc)
	}
	q := doc["quality"].(map[string]any)
	if q["rung"] != plan.RungLPT || q["degraded"] != true {
		t.Fatalf("tight deadline must degrade to baglpt: %v", q)
	}
	wantBound := plan.HeuristicBound("bags", in.Machines, plan.RungLPT)
	if b := q["bound"].(float64); b != wantBound && b != 1 {
		t.Fatalf("bound %v, want %g (or 1 if optimal)", b, wantBound)
	}
	if doc["makespan"].(float64) > wantBound*doc["lower_bound"].(float64) {
		t.Fatalf("answer violates its bound: %v > %g*%v", doc["makespan"], wantBound, doc["lower_bound"])
	}

	status, stats := getJSON(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	p := stats["plan"].(map[string]any)
	if p["adaptive_solves"].(float64) < 1 || p["degraded"].(float64) < 1 {
		t.Fatalf("SLO counters missing the degrade: %v", p)
	}
	if p["observations"].(float64) < 1 || p["model_cells"].(float64) < 1 {
		t.Fatalf("model counters empty: %v", p)
	}
}

// TestAdaptiveUnattainable422: a quality floor no rung can meet within
// the deadline refuses with 422 and the "unattainable" wording.
func TestAdaptiveUnattainable422(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	in := testInstance(t)
	trainSlowModel(s, len(in.Jobs), time.Second)

	status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{
		"instance": in, "eps": 0.25, "adaptive": true,
		"deadline_ms": 2, "min_quality": 1.3,
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %v", status, doc)
	}
	if msg := doc["error"].(string); !strings.Contains(msg, "unattainable") {
		t.Fatalf("error %q must say unattainable", msg)
	}
	if s.unattainable.Load() != 1 {
		t.Fatalf("unattainable counter = %d", s.unattainable.Load())
	}
}

// TestSpecValidation: the new SLO knobs are validated like the legacy
// ones — nonsense values are 400s, not silent defaults.
func TestSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	in := testInstance(t)
	for _, body := range []map[string]any{
		{"instance": in, "deadline_ms": -1},
		{"instance": in, "min_quality": 0.5},
	} {
		status, doc := postJSON(t, ts.URL+"/v1/solve", body)
		if status != http.StatusBadRequest {
			t.Fatalf("body %v: status %d, want 400 (%v)", body, status, doc)
		}
	}
}

// TestObservationFeedsServerModel: plain (non-adaptive) solves teach
// the shared model, so adaptive requests benefit without opting in.
func TestObservationFeedsServerModel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	in := testInstance(t)
	status, doc := postJSON(t, ts.URL+"/v1/solve", map[string]any{"instance": in, "eps": 0.5})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, doc)
	}
	if st := s.Planner().Snapshot(); st.Observations < 1 {
		t.Fatalf("plain solve did not feed the model: %+v", st)
	}
}

// TestAdaptiveRelatedOnDefaultPolicy: an adaptive related request that
// pins no backend runs the default policy, which hands related models
// to bnb, so it answers with the eptas rung decided by bnb — the answer
// a bnb-pinned request gets — on every repeat, once the cost model has
// observations.
func TestAdaptiveRelatedOnDefaultPolicy(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "testdata", "related_few_m6_n20.json"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := sched.ReadInstance(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	pinned := map[string]any{"instance": in, "family": "related", "eps": 0.5, "backend": "bnb", "no_cache": true}
	status, want := postJSON(t, ts.URL+"/v1/solve", pinned)
	if status != http.StatusOK {
		t.Fatalf("bnb-pinned request: status %d: %v", status, want)
	}
	body := map[string]any{"instance": in, "family": "related", "eps": 0.5, "adaptive": true, "no_cache": true}
	for i := 0; i < 3; i++ {
		status, doc := postJSON(t, ts.URL+"/v1/solve", body)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %v", i, status, doc)
		}
		q := doc["quality"].(map[string]any)
		if q["rung"] != plan.RungEPTAS || q["degraded"] == true || q["backend_used"] != "bnb" || q["bound"] != 1.5 {
			t.Fatalf("request %d: quality %v, want the eptas rung decided by bnb with bound 1.5", i, q)
		}
		if doc["makespan"] != want["makespan"] || !reflect.DeepEqual(doc["assignment"], want["assignment"]) {
			t.Fatalf("request %d: answer differs from the bnb-pinned request's", i)
		}
	}
}
