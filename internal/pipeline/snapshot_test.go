package pipeline

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/oracle"
	"repro/internal/pattern"
	"repro/internal/placer"
	"repro/internal/sched"
	"repro/internal/transform"
)

// sampleResult populates every field the codec carries,
// with distinct values so a transposed field shows up. Its scalars come
// from the artifacts through summarize, as for a fresh run.
func sampleResult() *Result {
	r := &Result{
		Guess:       1.5,
		Attempts:    3,
		IntegerVars: 12,
		MILPNodes:   44,
		OracleStats: oracle.Stats{Backend: "bnb", Nodes: 44, Pivots: 9, States: 12345},
		PlaceStats: placer.Stats{
			MachinesUsed: 6, EmptySlots: 2, XConflicts: 1,
			SwapRepairs: 3, OriginMoves: 4, GenericMoves: 5,
		},
		LiftStats: transform.LiftStats{
			MediumInserted: 7, MachineCap: 8, FillerSwaps: 9, FallbackMoves: 10,
		},
		Info:  &classify.Info{K: 4, Q: 7, BPrime: 2, Priority: []bool{true, false, true, false}},
		Space: &pattern.Space{Patterns: make([]pattern.Pattern, 17)},
		Final: &sched.Schedule{Machine: []int{0, 1, 2, 0, 1, 5}},
	}
	r.summarize()
	return r
}

func TestResultCodecRoundTrip(t *testing.T) {
	r := sampleResult()
	got, err := DecodeResult(EncodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Attempts != r.Attempts || got.IntegerVars != r.IntegerVars || got.MILPNodes != r.MILPNodes {
		t.Fatalf("counters: got %d/%d/%d", got.Attempts, got.IntegerVars, got.MILPNodes)
	}
	if got.OracleStats != r.OracleStats {
		t.Fatalf("oracle stats: got %+v, want %+v", got.OracleStats, r.OracleStats)
	}
	if got.PlaceStats != r.PlaceStats {
		t.Fatalf("place stats: got %+v, want %+v", got.PlaceStats, r.PlaceStats)
	}
	if got.LiftStats != r.LiftStats {
		t.Fatalf("lift stats: got %+v, want %+v", got.LiftStats, r.LiftStats)
	}
	if got.Parts != PartInfo|PartSpace || got.K != 4 || got.Q != 7 || got.BPrime != 2 {
		t.Fatalf("classification: parts %b, K %d Q %d b' %d", got.Parts, got.K, got.Q, got.BPrime)
	}
	// The projection keeps the priority *count* the solver statistics
	// read, not the literal bits.
	if got.PriorityBags != 2 {
		t.Fatalf("priority count %d, want 2", got.PriorityBags)
	}
	if got.Patterns != len(r.Space.Patterns) {
		t.Fatalf("patterns %d, want %d", got.Patterns, len(r.Space.Patterns))
	}
	if got.Info != nil || got.Space != nil || got.RelInfo != nil || got.RelSpace != nil {
		t.Fatal("decoding built stand-in artifacts")
	}
	if got.Final == nil || got.Final.Inst != nil {
		t.Fatalf("final: got %+v (Inst must stay nil until a hit rebinds it)", got.Final)
	}
	for i, m := range r.Final.Machine {
		if got.Final.Machine[i] != m {
			t.Fatalf("machine[%d] = %d, want %d", i, got.Final.Machine[i], m)
		}
	}
	// A decoded entry re-encodes to the bytes it came from.
	want := EncodeResult(r)
	if again := EncodeResult(got); !bytes.Equal(again, want) {
		t.Fatalf("decoded result re-encodes to %x, want %x", again, want)
	}
}

// TestResultCodecRetiredLaneSlots: the seven retired slots after the
// oracle work counters hold what a bnb or cfgdp solve recorded — the
// portfolio's raced count (1 once a backend ran, 0 when no oracle ran)
// and three zero loser counters, then the worker-lane count (1 once a
// backend searched, 0 when the DP declined the model or no oracle ran)
// and two zero lane counters — and payloads written with other values
// there, as multi-lane solves and portfolio races once wrote them,
// decode to the same result.
func TestResultCodecRetiredLaneSlots(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stats oracle.Stats
		slots []byte
	}{
		{"searched", sampleResult().OracleStats, []byte{1, 0, 0, 0, 1, 0, 0}},
		{"declined", oracle.Stats{Backend: "cfgdp"}, []byte{1, 0, 0, 0, 0, 0, 0}},
		{"no oracle", oracle.Stats{}, []byte{0, 0, 0, 0, 0, 0, 0}},
	} {
		r := sampleResult()
		r.OracleStats = tc.stats
		enc := EncodeResult(r)
		st := r.OracleStats
		prefix := []byte{resultCodecVersion}
		for _, v := range []int{r.Attempts, r.IntegerVars, r.MILPNodes} {
			prefix = putUvarint(prefix, uint64(v))
		}
		prefix = putString(prefix, st.Backend)
		for _, v := range []int64{int64(st.Nodes), int64(st.Pivots), st.States} {
			prefix = putUvarint(prefix, uint64(v))
		}
		if !bytes.HasPrefix(enc, prefix) {
			t.Fatalf("%s: payload %x does not start with the oracle prefix %x", tc.name, enc, prefix)
		}
		rest := enc[len(prefix)+len(tc.slots):]
		if slots := enc[len(prefix) : len(prefix)+len(tc.slots)]; !bytes.Equal(slots, tc.slots) {
			t.Fatalf("%s: retired slots %v, want %v", tc.name, slots, tc.slots)
		}
		want, err := DecodeResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		// A portfolio race of two backends whose losers burned 5 nodes,
		// 67 states and 3ms, and a four-lane solve with 11 claims and 1
		// adoption.
		race := putUvarint([]byte{2, 5, 67}, uint64(3*time.Millisecond))
		for _, variant := range []struct {
			name  string
			slots []byte
		}{
			{"multi-lane", append(append([]byte{}, tc.slots[:4]...), 4, 11, 1)},
			{"portfolio", append(race, tc.slots[4:]...)},
		} {
			payload := append(append(append([]byte{}, prefix...), variant.slots...), rest...)
			got, err := DecodeResult(payload)
			if err != nil {
				t.Fatalf("%s: %s payload: %v", tc.name, variant.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s payload decodes to %+v, want %+v", tc.name, variant.name, got, want)
			}
		}
	}
}

// TestResultCodecTransformedPriority: when the Section 2.2
// transformation ran, the effective priority vector is the transformed
// one; the snapshot must carry that count.
func TestResultCodecTransformedPriority(t *testing.T) {
	r := sampleResult()
	r.Transformed = &transform.Transformed{Priority: []bool{true, true, true, true, true}}
	r.summarize()
	got, err := DecodeResult(EncodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.PriorityBags != 5 {
		t.Fatalf("priority count %d, want the transformed vector's 5", got.PriorityBags)
	}
}

func TestResultCodecRelated(t *testing.T) {
	r := &Result{
		Attempts:    1,
		OracleStats: oracle.Stats{Backend: "cfgdp", States: 9},
		RelInfo:     &classify.RelInfo{Sizes: []float64{1, 2, 3}},
		RelSpace: &pattern.RelSpace{Classes: [][]pattern.RelPattern{
			make([]pattern.RelPattern, 4), make([]pattern.RelPattern, 6),
		}},
		Final: &sched.Schedule{Machine: []int{2, 0, 1}},
	}
	r.summarize()
	got, err := DecodeResult(EncodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Parts != PartRelInfo|PartRelSpace || got.K != 3 {
		t.Fatalf("related classification: parts %b, K %d", got.Parts, got.K)
	}
	if got.Patterns != 10 {
		t.Fatalf("related pattern total %d, want 10", got.Patterns)
	}
	if got.Q != 0 || got.BPrime != 0 || got.PriorityBags != 0 {
		t.Fatalf("bags constants set for a related result: %+v", got)
	}
}

// TestResultCodecRejection: negative entries have no Final and no
// artifacts at all — the zero shape must round-trip.
func TestResultCodecRejection(t *testing.T) {
	r := &Result{Attempts: 2, OracleStats: oracle.Stats{Backend: "bnb", Nodes: 31}, MILPNodes: 31}
	got, err := DecodeResult(EncodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Final != nil || got.Parts != 0 {
		t.Fatalf("parts materialized from an empty shape: %+v", got)
	}
	if got.MILPNodes != 31 || got.OracleStats.Backend != "bnb" {
		t.Fatalf("counters lost: %+v", got)
	}
}

func TestResultCodecRejectsDamage(t *testing.T) {
	good := EncodeResult(sampleResult())
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"unknown version", func(b []byte) []byte { b[0] = resultCodecVersion + 1; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-2] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mut(append([]byte(nil), good...))
			if _, err := DecodeResult(data); !errors.Is(err, ErrSnapshotCodec) {
				t.Fatalf("got %v, want ErrSnapshotCodec", err)
			}
		})
	}
}

// FuzzDecodeResult: arbitrary payloads must never panic or
// over-allocate; whatever decodes must re-encode decodably (the codec
// is closed over its own output).
func FuzzDecodeResult(f *testing.F) {
	f.Add(EncodeResult(sampleResult()))
	f.Add(EncodeResult(&Result{}))
	f.Add(EncodeResult(&Result{
		Parts: PartRelInfo | PartRelSpace, K: 2, Patterns: 3,
		Final: &sched.Schedule{Machine: []int{-1, 0, 7}},
	}))
	f.Add([]byte{resultCodecVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		if _, err := DecodeResult(EncodeResult(r)); err != nil {
			t.Fatalf("decoded result failed to re-decode: %v", err)
		}
	})
}
