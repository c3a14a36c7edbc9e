package plan

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// frozen builds a model with a fixed set of observations and returns
// it; tests freeze it by simply not observing afterwards.
func frozen() *Model {
	m := NewModel()
	obs := []struct {
		eps     float64
		backend string
		d       time.Duration
	}{
		{0.1, "bnb", 800 * time.Millisecond},
		{0.2, "bnb", 200 * time.Millisecond},
		{0.3, "bnb", 80 * time.Millisecond},
		{0.5, "bnb", 20 * time.Millisecond},
		{0.9, "bnb", 5 * time.Millisecond},
		{0.5, "cfgdp", 60 * time.Millisecond},
	}
	for _, o := range obs {
		m.Observe(Key{Family: "bags", Size: SizeClass(24), Rung: RungEPTAS,
			EpsIdx: EpsIndex(o.eps), Backend: o.backend}, o.d)
	}
	m.Observe(Key{Family: "bags", Size: SizeClass(24), Rung: RungLPT}, 300*time.Microsecond)
	m.Observe(Key{Family: "bags", Size: SizeClass(24), Rung: RungGreedy}, 100*time.Microsecond)
	return m
}

func baseReq(budget time.Duration) Request {
	return Request{Family: "bags", Jobs: 24, Machines: 8, Eps: 0.1,
		Backend: "bnb", Budget: budget}
}

func TestLadderShape(t *testing.T) {
	rungs := Ladder("bags", 8, 0.3)
	if rungs[0].Name != RungEPTAS || rungs[0].Eps != 0.3 || rungs[0].Bound != 1.3 {
		t.Fatalf("first rung must be the requested eps: %+v", rungs[0])
	}
	for i, r := range rungs[1:] {
		prev := rungs[i]
		if r.Name == RungEPTAS && prev.Name == RungEPTAS && r.Eps <= prev.Eps {
			t.Fatalf("eps rungs must coarsen monotonically: %+v", rungs)
		}
	}
	last := rungs[len(rungs)-1]
	if last.Name != RungGreedy || last.Bound != 8 {
		t.Fatalf("bags ladder must end at greedy with the area bound m: %+v", last)
	}
	if lpt := rungs[len(rungs)-2]; lpt.Name != RungLPT || lpt.Bound != 2 {
		t.Fatalf("bags baglpt rung must carry the Lemma 8 bound 2: %+v", lpt)
	}

	rel := Ladder("related", 8, 0.3)
	for _, r := range rel {
		if r.Name == RungGreedy {
			t.Fatalf("related ladder must exclude the greedy rung (no bound): %+v", rel)
		}
	}
	id := Ladder("identical", 8, 0.3)
	if lpt := id[len(id)-2]; lpt.Name != RungLPT || math.Abs(lpt.Bound-4.0/3.0) > 1e-12 {
		t.Fatalf("identical baglpt rung must carry the Graham LPT bound 4/3: %+v", lpt)
	}
}

func TestEpsIndexBuckets(t *testing.T) {
	for i, g := range EpsGrid {
		if got := EpsIndex(g); got != i {
			t.Fatalf("EpsIndex(%g) = %d, want %d", g, got, i)
		}
	}
	if EpsIndex(0.12) != EpsIndex(0.10) {
		t.Fatalf("0.12 must bucket with 0.10")
	}
	if EpsIndex(0.001) != 0 || EpsIndex(0.99) != len(EpsGrid)-1 {
		t.Fatalf("extremes must clamp to the grid ends")
	}
}

// TestDecideDeterministic: identical requests against a frozen model
// yield byte-identical decisions, and the decision is a pure function
// of the model version.
func TestDecideDeterministic(t *testing.T) {
	m := frozen()
	req := baseReq(150 * time.Millisecond)
	first, err := m.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		d, err := m.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d, first) {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, d, first)
		}
	}
	if first.ModelVersion != m.Snapshot().Version {
		t.Fatalf("decision must be stamped with the model version")
	}
}

// TestDecideMonotone: sweeping the deadline downward, the chosen eps
// never gets finer and heuristic choices never revert to eptas.
func TestDecideMonotone(t *testing.T) {
	m := frozen()
	prevEps := math.Inf(-1)
	sawHeuristic := false
	for budget := 2 * time.Second; budget >= time.Millisecond; budget -= time.Millisecond {
		d, err := m.Decide(baseReq(budget))
		if err != nil {
			t.Fatalf("budget %s: %v", budget, err)
		}
		if d.Rung.Heuristic() {
			sawHeuristic = true
			continue
		}
		if sawHeuristic {
			t.Fatalf("budget %s: reverted from heuristic to eptas", budget)
		}
		if d.Rung.Eps < prevEps {
			t.Fatalf("budget %s: eps got finer (%g after %g) as the deadline tightened",
				budget, d.Rung.Eps, prevEps)
		}
		prevEps = d.Rung.Eps
	}
	if !sawHeuristic {
		t.Fatalf("sweep never reached the heuristic rungs")
	}
}

// Table cases for the ladder walk against the frozen model.
func TestDecideTable(t *testing.T) {
	m := frozen()
	cases := []struct {
		name     string
		budget   time.Duration
		minQ     float64
		wantRung string
		wantEps  float64
		degraded bool
	}{
		{"generous keeps requested eps", 2 * time.Second, 0, RungEPTAS, 0.1, false},
		{"no deadline keeps requested eps", 0, 0, RungEPTAS, 0.1, false},
		{"mid budget degrades one rung", 300 * time.Millisecond, 0, RungEPTAS, 0.2, true},
		{"tight budget reaches coarse eps", 30 * time.Millisecond, 0, RungEPTAS, 0.5, true},
		{"very tight budget goes heuristic", 2 * time.Millisecond, 0, RungLPT, 0, true},
		{"floor stops at last eps rung", 8 * time.Millisecond, 1.95, RungEPTAS, 0.9, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := baseReq(tc.budget)
			req.MinQuality = tc.minQ
			d, err := m.Decide(req)
			if err != nil {
				t.Fatal(err)
			}
			if d.Rung.Name != tc.wantRung || d.Rung.Eps != tc.wantEps || d.Degraded != tc.degraded {
				t.Fatalf("got rung %q eps %g degraded %v, want %q %g %v",
					d.Rung.Name, d.Rung.Eps, d.Degraded, tc.wantRung, tc.wantEps, tc.degraded)
			}
		})
	}
}

func TestDecideUnattainable(t *testing.T) {
	m := frozen()

	// Floor below the requested bound and below every other rung.
	req := baseReq(0)
	req.MinQuality = 1.05
	if _, err := m.Decide(req); !errors.Is(err, ErrUnattainable) {
		t.Fatalf("floor 1.05 with eps 0.1 must be unattainable, got %v", err)
	}

	// Floor admits eps rungs only, but the deadline rules them all out.
	req = baseReq(time.Microsecond)
	req.MinQuality = 1.95
	if _, err := m.Decide(req); !errors.Is(err, ErrUnattainable) {
		t.Fatalf("1µs budget under an eps-only floor must be unattainable, got %v", err)
	}

	// Without a floor there is no refusal: an impossible deadline gets
	// the cheapest-predicted rung, flagged best-effort.
	req = baseReq(time.Microsecond)
	if d, err := m.Decide(req); err != nil || !d.Rung.Heuristic() || !d.BestEffort {
		t.Fatalf("floorless tight budget must answer best-effort with a heuristic, got %+v, %v", d, err)
	}
}

// A cold model must change nothing: the requested configuration wins.
func TestDecideColdModelKeepsRequest(t *testing.T) {
	m := NewModel()
	d, err := m.Decide(baseReq(1 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if d.Degraded || d.Rung.Name != RungEPTAS || d.Rung.Eps != 0.1 || d.Known {
		t.Fatalf("cold model must keep the requested rung optimistically: %+v", d)
	}
}

// TestDecidePredictsFromPolicyCells: an eptas rung is predicted from the
// cells of the request's own oracle policy, never from another policy's.
func TestDecidePredictsFromPolicyCells(t *testing.T) {
	m := frozen()
	req := baseReq(2 * time.Second)
	req.Eps = 0.5
	for _, tc := range []struct {
		backend string
		pred    time.Duration
		known   bool
	}{
		{"bnb", 20 * time.Millisecond, true},
		{"cfgdp", 60 * time.Millisecond, true},
		{"default", 0, false},
	} {
		req.Backend = tc.backend
		d, err := m.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if d.Rung.Name != RungEPTAS || d.Predicted != tc.pred || d.Known != tc.known {
			t.Errorf("backend %q: decision %+v, want the eptas rung predicted %v (known %v)", tc.backend, d, tc.pred, tc.known)
		}
	}
}

func TestPredictSizeRelaxation(t *testing.T) {
	m := NewModel()
	k := Key{Family: "bags", Size: SizeClass(24), Rung: RungEPTAS,
		EpsIdx: EpsIndex(0.2), Backend: "bnb"}
	m.Observe(k, 40*time.Millisecond)

	near := k
	near.Size = SizeClass(40) // one bucket up
	if pred, ok := m.Predict(near); !ok || pred != 40*time.Millisecond {
		t.Fatalf("neighbor bucket must borrow the estimate: %v %v", pred, ok)
	}
	far := k
	far.Size = k.Size + maxSizeRelax + 1
	if _, ok := m.Predict(far); ok {
		t.Fatalf("buckets beyond the relaxation radius must stay unknown")
	}
}

func TestObserveEWMA(t *testing.T) {
	m := NewModel()
	k := Key{Family: "bags", Size: 5, Rung: RungEPTAS, EpsIdx: 2, Backend: "bnb"}
	m.Observe(k, 100*time.Millisecond)
	m.Observe(k, 200*time.Millisecond)
	pred, ok := m.Predict(k)
	if !ok {
		t.Fatal("observed key must predict")
	}
	want := 125 * time.Millisecond // 100 + 0.25*(200-100)
	if diff := pred - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("EWMA got %v, want ~%v", pred, want)
	}
	if st := m.Snapshot(); st.Cells != 1 || st.Observations != 2 || st.Version != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := frozen()
	var buf bytes.Buffer
	if err := m.Export(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	warm := NewModel()
	if err := warm.Import(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// The warm model must decide exactly like the donor.
	for _, budget := range []time.Duration{0, 2 * time.Second, 300 * time.Millisecond, 2 * time.Millisecond} {
		a, errA := m.Decide(baseReq(budget))
		b, errB := warm.Decide(baseReq(budget))
		if (errA == nil) != (errB == nil) {
			t.Fatalf("budget %s: error mismatch %v vs %v", budget, errA, errB)
		}
		if errA == nil && (a.Rung != b.Rung || a.Predicted != b.Predicted || a.Known != b.Known) {
			t.Fatalf("budget %s: warm model diverged: %+v vs %+v", budget, a, b)
		}
	}

	// Stable export: re-exporting the donor yields the same bytes.
	var again bytes.Buffer
	if err := m.Export(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Fatalf("export must be byte-stable")
	}

	// Live cells beat shipped ones on import.
	live := NewModel()
	k := Key{Family: "bags", Size: SizeClass(24), Rung: RungLPT}.Normalize()
	live.Observe(k, 42*time.Microsecond)
	if err := live.Import(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if pred, ok := live.Predict(k); !ok || pred != 42*time.Microsecond {
		t.Fatalf("import must not clobber live cells: %v %v", pred, ok)
	}

	if err := NewModel().Import(bytes.NewReader([]byte(`{"format":99,"cells":[]}`))); err == nil {
		t.Fatal("unknown snapshot format must be rejected")
	}
}

// BenchmarkPlannerDecision tracks the admission-time overhead of one
// planning decision against a warm model; it must stay far below 1% of
// a cold solve (cold corpus solves are milliseconds to seconds).
func BenchmarkPlannerDecision(b *testing.B) {
	m := frozen()
	req := baseReq(150 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Decide(req); err != nil {
			b.Fatal(err)
		}
	}
}
