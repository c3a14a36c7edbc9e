package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// canonicalBodies are /v1/solve bodies the fast path must decode itself.
var canonicalBodies = []string{
	`{"instance":{"machines":2,"jobs":[{"id":0,"size":1,"bag":0}]}}`,
	`{"instance":{"machines":3,"num_bags":2,"jobs":[{"id":0,"size":2,"bag":0},{"id":1,"size":1.5,"bag":1}]},"eps":0.5,"family":"bags"}`,
	`{"eps":0.25,"backend":"cfgdp","family":"identical","timeout_ms":70,"no_cache":true,"oracle_workers":2,"deadline_ms":20,"min_quality":1.5,"adaptive":false,"instance":{"machines":1,"jobs":[]}}`,
	`{"instance":{"machines":2,"speeds":[1,2.5],"jobs":[{"id":0,"size":1,"bag":0}]},"family":"related","spec":{"eps":0.3,"adaptive":true,"deadline_ms":5}}`,
	" {\n \"spec\" : { } ,\t\"instance\" : { \"jobs\" : [ ] , \"machines\" : 4 } }\r\n",
	`{"eps":-0,"timeout_ms":-0,"min_quality":1E0,"backend":"","instance":{"machines":1,"jobs":[{"size":5e-1}]}}`,
	`{"instance":{"machines":1,"jobs":[]},"eps":0.5,"spec":{"eps":0.1,"backend":"bnb","family":"bags","timeout_ms":0,"no_cache":false,"oracle_workers":0,"deadline_ms":0,"min_quality":0,"adaptive":true}}`,
	`{}`,
	`{"eps":0.5}`,
}

// declinedBodies are one body per case the fast path leaves to
// encoding/json, whether or not the reference accepts it.
var declinedBodies = map[string]string{
	"escaped key":              `{"instance":{"machines":1,"jobs":[]},"\u0065ps":0.5}`,
	"escaped string":           `{"instance":{"machines":1,"jobs":[]},"family":"b\u0061gs"}`,
	"non-ASCII string":         `{"instance":{"machines":1,"jobs":[]},"backend":"bnbé"}`,
	"case-folded key":          `{"Instance":{"machines":1,"jobs":[]}}`,
	"case-folded knob":         `{"instance":{"machines":1,"jobs":[]},"EPS":0.5}`,
	"duplicate key":            `{"instance":{"machines":1,"jobs":[]},"eps":0.5,"eps":0.25}`,
	"duplicate instance":       `{"instance":{"machines":1,"jobs":[]},"instance":{"machines":2,"jobs":[]}}`,
	"duplicate spec":           `{"instance":{"machines":1,"jobs":[]},"spec":{"eps":0.5},"spec":{"backend":"bnb"}}`,
	"duplicate nested key":     `{"instance":{"machines":1,"jobs":[]},"spec":{"eps":0.5,"eps":0.25}}`,
	"null instance":            `{"instance":null}`,
	"null knob":                `{"instance":{"machines":1,"jobs":[]},"backend":null}`,
	"null spec":                `{"instance":{"machines":1,"jobs":[]},"spec":null}`,
	"unknown key":              `{"instance":{"machines":1,"jobs":[]},"epss":0.5}`,
	"unknown nested key":       `{"instance":{"machines":1,"jobs":[]},"spec":{"instance":{}}}`,
	"unknown instance key":     `{"instance":{"machines":3,"speed":[1,2,4],"jobs":[]}}`,
	"trailing data":            `{"instance":{"machines":1,"jobs":[]}} {}`,
	"trailing bracket":         `{"instance":{"machines":1,"jobs":[]}}]`,
	"invalid instance":         `{"instance":{"machines":0,"jobs":[]}}`,
	"duplicate job id":         `{"instance":{"machines":1,"jobs":[{"id":0,"size":1},{"id":0,"size":1}]}}`,
	"fraction for an int":      `{"instance":{"machines":1,"jobs":[]},"timeout_ms":1.0}`,
	"exponent for an int":      `{"instance":{"machines":1,"jobs":[]},"oracle_workers":1e0}`,
	"out-of-range int":         `{"instance":{"machines":1,"jobs":[]},"deadline_ms":9223372036854775808}`,
	"out-of-range float":       `{"instance":{"machines":1,"jobs":[]},"eps":1e400}`,
	"string for a bool":        `{"instance":{"machines":1,"jobs":[]},"adaptive":"true"}`,
	"number for a bool":        `{"instance":{"machines":1,"jobs":[]},"no_cache":1}`,
	"number for a string":      `{"instance":{"machines":1,"jobs":[]},"backend":1}`,
	"literal prefix":           `{"instance":{"machines":1,"jobs":[]},"adaptive":truex}`,
	"malformed JSON":           `{"instance":{"machines":1,"jobs":[]}`,
	"not an object":            `[{"instance":{"machines":1,"jobs":[]}}]`,
	"empty body":               ``,
	"control byte in a string": "{\"instance\":{\"machines\":1,\"jobs\":[]},\"family\":\"ba\tgs\"}",
}

// decodeBoth runs the fast path and the reference on data.
func decodeBoth(data []byte) (fast SolveRequest, ok bool, ref SolveRequest, refErr error) {
	fast, ok = decodeSolveRequest(data)
	refErr = decodeReference(bytes.NewReader(data), &ref)
	return fast, ok, ref, refErr
}

// requestBodies returns the committed request bodies and a /v1/solve
// body around every committed instance.
func requestBodies(t testing.TB) [][]byte {
	t.Helper()
	var bodies [][]byte
	for _, name := range []string{"solve_legacy.json", "solve_spec.json", "solve_slo.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, data)
	}
	paths, err := filepath.Glob("../../testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if strings.Contains(filepath.Base(p), "churn_") {
			continue
		}
		in, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, []byte(`{"instance": `+string(in)+`, "eps": 0.5, "family": "bags"}`))
	}
	return bodies
}

func TestDecodeSolveRequestMatchesReference(t *testing.T) {
	bodies := requestBodies(t)
	for _, b := range canonicalBodies {
		bodies = append(bodies, []byte(b))
	}
	for i, data := range bodies {
		fast, ok, ref, err := decodeBoth(data)
		if err != nil {
			t.Fatalf("body %d: reference rejects a canonical body: %v", i, err)
		}
		if !ok {
			t.Errorf("body %d: fast path declined a canonical body: %.120s", i, data)
			continue
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("body %d: fast path decoded %+v, reference %+v", i, fast, ref)
		}
		// Unmarshal takes the fast path and yields the same request.
		var got SolveRequest
		if err := Unmarshal(data, &got); err != nil || !reflect.DeepEqual(got, ref) {
			t.Errorf("body %d: Unmarshal = %+v, %v; want %+v", i, got, err, ref)
		}
	}
}

func TestDecodeSolveRequestDeclines(t *testing.T) {
	for name, body := range declinedBodies {
		t.Run(name, func(t *testing.T) {
			if _, ok := decodeSolveRequest([]byte(body)); ok {
				t.Fatalf("fast path accepted %q", body)
			}
			// Unmarshal and Decode answer exactly as the reference does.
			var ref SolveRequest
			refErr := decodeReference(strings.NewReader(body), &ref)
			for via, decode := range map[string]func(*SolveRequest) error{
				"Unmarshal": func(r *SolveRequest) error { return Unmarshal([]byte(body), r) },
				"Decode":    func(r *SolveRequest) error { return Decode(strings.NewReader(body), r) },
			} {
				var got SolveRequest
				err := decode(&got)
				if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
					t.Fatalf("%s error %v, reference %v", via, err, refErr)
				}
				if err == nil && !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s decoded %+v, reference %+v", via, got, ref)
				}
			}
		})
	}
}

// TestUnmarshalIntoUsedRequest: a request that already holds values is
// decoded by the reference, which merges into it, never by the fast
// path, which would not.
func TestUnmarshalIntoUsedRequest(t *testing.T) {
	body := []byte(`{"instance":{"machines":1,"jobs":[]}}`)
	req := SolveRequest{SolveSpec: SolveSpec{Eps: 0.25}}
	if err := Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	if req.Eps != 0.25 || req.Instance == nil || req.Instance.Machines != 1 {
		t.Fatalf("decoded %+v, want eps kept and the instance merged in", req)
	}
}

// FuzzDecodeSolveRequest holds the request fast path to its contract:
// for any body it either declines or returns a request deeply equal to
// the reference decoder's, and it declines whenever the reference
// returns an error.
//
//	go test -run '^$' -fuzz FuzzDecodeSolveRequest -fuzztime 30s ./internal/wire
func FuzzDecodeSolveRequest(f *testing.F) {
	for _, b := range requestBodies(f) {
		f.Add(b)
	}
	for _, b := range canonicalBodies {
		f.Add([]byte(b))
	}
	for _, b := range declinedBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ok, ref, err := decodeBoth(data)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("fast path accepted a body the reference rejects (%v): %q", err, data)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("fast path decoded %+v, reference %+v, from %q", fast, ref, data)
		}
	})
}

// referenceEncode is the response encoding the append encoder must
// reproduce: encoding/json with two-space indentation.
func referenceEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// specialFloats are the values where encoding/json's number format
// changes or fails.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 9.99999999999999e20, -1e21,
	1.5, 0.1, 2.5e-9, 1e-100, 1e100, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, 4.9e-324, -5e-324, 1e-310, math.Inf(1), math.Inf(-1), math.NaN(),
}

func randFloat(rng *rand.Rand, nonFinite bool) float64 {
	for {
		var f float64
		switch rng.Intn(4) {
		case 0:
			f = specialFloats[rng.Intn(len(specialFloats))]
		case 1:
			f = math.Float64frombits(rng.Uint64())
		case 2:
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		default:
			f = float64(rng.Intn(2000)) / 8
		}
		if nonFinite || !(math.IsInf(f, 0) || math.IsNaN(f)) {
			return f
		}
	}
}

var testStrings = []string{"", "bnb", "cfgdp", "portfolio", "eptas", "baglpt", "greedy", "repair",
	"a<b", "x&y", "q\"uote", "back\\slash", "tab\there", "nl\n", "\x00\x1f", "\x7f", "é", " ", "\xff", "日本"}

func randInts(rng *rand.Rand) []int {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	v := make([]int, rng.Intn(300))
	for i := range v {
		v[i] = rng.Intn(1<<20) - 1<<10
		if rng.Intn(20) == 0 {
			v[i] = int(rng.Uint64())
		}
	}
	return v
}

func randFloats(rng *rand.Rand, nonFinite bool) []float64 {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	v := make([]float64, rng.Intn(300))
	for i := range v {
		v[i] = randFloat(rng, nonFinite)
	}
	return v
}

// randSolveResult draws a result with every omitempty field on or off.
// One draw in eight may carry a non-finite float somewhere.
func randSolveResult(rng *rand.Rand) *SolveResult {
	nonFinite := rng.Intn(8) == 0
	pick := func() bool { return rng.Intn(2) == 0 }
	r := &SolveResult{
		Makespan:    randFloat(rng, nonFinite),
		LowerBound:  randFloat(rng, nonFinite),
		Assignment:  randInts(rng),
		Loads:       randFloats(rng, nonFinite),
		Guesses:     rng.Intn(100),
		CacheHits:   rng.Intn(100) - 50,
		CacheMisses: int(rng.Uint64()),
		ElapsedUS:   rng.Int63() - rng.Int63(),
		Quality: Quality{
			Rung:    testStrings[rng.Intn(len(testStrings))],
			EpsUsed: randFloat(rng, nonFinite),
			Bound:   randFloat(rng, nonFinite),
		},
	}
	if pick() {
		r.FinalGuess = randFloat(rng, nonFinite)
	}
	r.Fallback = pick()
	if pick() {
		r.Backend = testStrings[rng.Intn(len(testStrings))]
	}
	q := &r.Quality
	if pick() {
		q.BackendUsed = testStrings[rng.Intn(len(testStrings))]
	}
	q.Degraded, q.BestEffort = pick(), pick()
	if pick() {
		q.PlannerUS = rng.Int63n(1000) - 10
	}
	if pick() {
		q.PredictedUS = rng.Int63()
	}
	if pick() {
		q.ModelVersion = rng.Uint64()
	}
	return r
}

// TestAppendSolveResultMatchesReference: over random results the append
// encoder writes exactly the reference's bytes, or both fail with the
// same error.
func TestAppendSolveResultMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	failures := 0
	for trial := 0; trial < 20000; trial++ {
		r := randSolveResult(rng)
		want, wantErr := referenceEncode(r)
		got, err := appendSolveResult([]byte("prefix"), r)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("trial %d: append encoder error %v, reference %v", trial, err, wantErr)
		}
		if err != nil {
			failures++
			if err.Error() != wantErr.Error() {
				t.Fatalf("trial %d: append encoder error %q, reference %q", trial, err, wantErr)
			}
			continue
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("trial %d: append encoder wrote\n%s\nreference\n%s", trial, got[len("prefix"):], want)
		}
		// Encode writes the same bytes to a buffer and to a plain writer.
		var buf bytes.Buffer
		var plain strings.Builder
		if err := Encode(&buf, r); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("trial %d: Encode into a buffer = %v\n%s", trial, err, buf.Bytes())
		}
		if err := Encode(&plain, r); err != nil || plain.String() != string(want) {
			t.Fatalf("trial %d: Encode into a writer = %v\n%s", trial, err, plain.String())
		}
	}
	if failures == 0 {
		t.Fatal("no draw carried a non-finite float")
	}
}

// TestEncodeNonFinite: a non-finite answer is an error naming the value,
// and nothing is written.
func TestEncodeNonFinite(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		var buf bytes.Buffer
		err := Encode(&buf, &SolveResult{Makespan: f, Quality: Quality{Rung: "eptas"}})
		_, refErr := referenceEncode(&SolveResult{Makespan: f})
		if err == nil || refErr == nil || err.Error() != "wire: encode: "+refErr.Error() {
			t.Fatalf("Encode(%v) = %v, reference %v", f, err, refErr)
		}
		if buf.Len() != 0 {
			t.Fatalf("Encode(%v) wrote %q on error", f, buf.Bytes())
		}
	}
}
