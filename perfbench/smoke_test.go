package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// tiny shrinks a run to a second or so of traffic per phase.
var tiny = scale{setups: 1, coldRate: 100, warmSet: 8, streams: 4, steps: 50}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkResult(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runTimed(io.Discard, w, 7, 1, tiny)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			for _, name := range []string{"throughput_rps", "p50_ms", "cpu_ms_per_req", "makespan_ratio", "setup_s", "peak_rss_mb"} {
				if v := res.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}

			res, err = runTraced(io.Discard, w, 7, 1, tiny, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			if n := res.Metrics["core.answer_mismatches"].Value; n != 0 {
				t.Errorf("%v in-process answers differ from the HTTP answers", n)
			}
		})
	}
}

// bodies flattens everything a corpus will send that does not depend
// on the program's answers: setup bodies, the first bodies of a cold or
// warm pass, and the churn streams' base instances and deltas.
func bodies(t *testing.T, cs *corpus) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, c := range cs.prime {
		b.Write(c.body)
	}
	switch src := cs.newSource().(type) {
	case *churnSource:
		for _, st := range src.streams {
			if err := json.NewEncoder(&b).Encode(st.tr); err != nil {
				t.Fatal(err)
			}
		}
	default:
		for i := 0; i < 300; i++ {
			b.Write(src.next(i % clients).body)
		}
	}
	return b.Bytes()
}

func TestCorpusIsSeeded(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) []byte {
			cs, err := w.gen(seed, 1, tiny)
			if err != nil {
				t.Fatal(err)
			}
			return bodies(t, cs)
		}
		a, b, c := gen(1), gen(1), gen(2)
		if len(a) == 0 {
			t.Errorf("%s: empty corpus", w.name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: one seed gave two different corpora", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same corpus", w.name)
		}
	}
}

// TestArenaRoundTrip checks that a cold call read back from the arena
// sends the same body and is checked against the same instance as the
// call it was built from.
func TestArenaRoundTrip(t *testing.T) {
	cs, err := genCold(3, 1, tiny)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.free()
	src := cs.newSource()
	for i := 0; i < int(tiny.coldRate); i++ {
		got, want := src.next(0), coldCall(3, i)
		if !bytes.Equal(got.body, want.body) || got.bags != want.bags || got.path != want.path || got.slot != want.slot {
			t.Fatalf("call %d: read back differently", i)
		}
		g, w := got.inst, want.inst
		if g.Machines != w.Machines || g.NumBags != w.NumBags || !reflect.DeepEqual(g.Speeds, w.Speeds) || len(g.Jobs) != len(w.Jobs) {
			t.Fatalf("call %d: instance read back differently", i)
		}
		for j := range g.Jobs {
			if g.Jobs[j] != w.Jobs[j] {
				t.Fatalf("call %d job %d: read back differently", i, j)
			}
		}
	}
}
