package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// sameInstance reports whether a and b are equal field by field, floats
// compared bit for bit and nil slices told apart from empty ones (the
// reference decoder yields nil speeds when the key is absent, an empty
// slice for []).
func sameInstance(a, b Instance) bool {
	if a.Machines != b.Machines || a.NumBags != b.NumBags || len(a.Jobs) != len(b.Jobs) || len(a.Speeds) != len(b.Speeds) {
		return false
	}
	if (a.Jobs == nil) != (b.Jobs == nil) || (a.Speeds == nil) != (b.Speeds == nil) {
		return false
	}
	for i, j := range a.Jobs {
		k := b.Jobs[i]
		if j.ID != k.ID || j.Bag != k.Bag || math.Float64bits(j.Size) != math.Float64bits(k.Size) {
			return false
		}
	}
	for i, s := range a.Speeds {
		if math.Float64bits(s) != math.Float64bits(b.Speeds[i]) {
			return false
		}
	}
	return true
}

// canonicalDocs are documents the fast path must decode itself.
var canonicalDocs = []string{
	`{"machines":3,"num_bags":2,"jobs":[{"id":0,"size":1.5,"bag":0},{"id":1,"size":2.25,"bag":1}]}`,
	`{"machines":2,"num_bags":1,"speeds":[1,2.5],"jobs":[{"id":0,"size":1,"bag":0}]}`,
	" {\n \"jobs\" : [ { \"bag\" : 0 , \"size\" : 2.0 , \"id\" : 7 } ] ,\t\"machines\" : 1 }\r\n",
	`{"machines":1,"jobs":[]}`,
	`{"machines":1,"speeds":[],"jobs":[{"size":1e-3},{"id":1,"size":3E+2,"bag":4}]}`,
	`{"machines":-0,"num_bags":-5,"jobs":[{"id":-3,"size":-0.0,"bag":-1}]}`,
	`{}`,
}

// declinedDocs are one input per case the fast path leaves to the
// reference decoder, whether or not the reference accepts it.
var declinedDocs = map[string]string{
	"case-folded key":      `{"Machines":1,"jobs":[{"id":0,"size":1,"bag":0}]}`,
	"escaped key":          `{"mach\u0069nes":1,"jobs":[{"id":0,"size":1,"bag":0}]}`,
	"duplicate key":        `{"machines":1,"machines":2,"jobs":[]}`,
	"duplicate job key":    `{"machines":1,"jobs":[{"id":0,"size":1,"size":2,"bag":0}]}`,
	"null":                 `{"machines":1,"speeds":null,"jobs":[]}`,
	"exponent for an int":  `{"machines":1e2,"jobs":[]}`,
	"fraction for an int":  `{"machines":1,"jobs":[{"id":0,"size":1,"bag":2.0}]}`,
	"out-of-range float":   `{"machines":1,"jobs":[{"id":0,"size":1e400,"bag":0}]}`,
	"out-of-range int":     `{"machines":99999999999999999999,"jobs":[]}`,
	"unknown key":          `{"machines":3,"speed":[1,2,4],"jobs":[{"id":0,"size":1,"bag":0}]}`,
	"unknown job key":      `{"machines":1,"jobs":[{"id":0,"size":1,"bag":0,"weight":2}]}`,
	"malformed JSON":       `{"machines":1,"jobs":[{"id":0,"size":1,"bag":0}]`,
	"trailing data":        `{"machines":1,"jobs":[]} {}`,
	"leading zero":         `{"machines":01,"jobs":[]}`,
	"string for a number":  `{"machines":"1","jobs":[]}`,
	"not an object":        `[1,2,3]`,
	"top-level null":       `null`,
	"empty input":          ``,
	"trailing comma":       `{"machines":1,"jobs":[],}`,
	"bare dot":             `{"machines":1,"jobs":[{"id":0,"size":.5,"bag":0}]}`,
	"control byte in key":  "{\"mach\tines\":1}",
	"nested object value":  `{"machines":{"n":1},"jobs":[]}`,
	"job is not an object": `{"machines":1,"jobs":[1]}`,
}

// corpusDocs returns the committed instance files.
func corpusDocs(t testing.TB) [][]byte {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	var docs [][]byte
	for _, p := range paths {
		if strings.Contains(filepath.Base(p), "churn_") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
	}
	if len(docs) == 0 {
		t.Fatal("no committed instances found")
	}
	return docs
}

func TestDecodeCanonicalMatchesReference(t *testing.T) {
	docs := corpusDocs(t)
	for _, d := range canonicalDocs {
		docs = append(docs, []byte(d))
	}
	for i, data := range docs {
		got, ok := decodeCanonical(data)
		if !ok {
			t.Errorf("doc %d: fast path declined a canonical document: %.80s", i, data)
			continue
		}
		want, err := decodeReference(data)
		if err != nil {
			t.Fatalf("doc %d: reference rejected a canonical document: %v", i, err)
		}
		if !sameInstance(got, want) {
			t.Errorf("doc %d: fast path decoded %+v, reference %+v", i, got, want)
		}
	}
}

func TestDecodeCanonicalDeclines(t *testing.T) {
	for name, doc := range declinedDocs {
		t.Run(name, func(t *testing.T) {
			if _, ok := decodeCanonical([]byte(doc)); ok {
				t.Fatalf("fast path accepted %q", doc)
			}
			// Declined input decodes exactly as the reference says.
			var in Instance
			err := in.UnmarshalJSON([]byte(doc))
			want, refErr := decodeReference([]byte(doc))
			if refErr != nil {
				if err == nil {
					t.Fatalf("UnmarshalJSON accepted %q, the reference rejects it: %v", doc, refErr)
				}
				return
			}
			if vErr := want.Validate(); (err == nil) != (vErr == nil) || (err != nil && err.Error() != vErr.Error()) {
				t.Fatalf("UnmarshalJSON error %v, reference decode then Validate %v", err, vErr)
			}
			if err == nil && !sameInstance(in, want) {
				t.Fatalf("UnmarshalJSON decoded %+v, reference %+v", in, want)
			}
		})
	}
}

// TestInstanceJSONRejectsUnknownField: a misspelled key inside an
// instance is an error, not a silently dropped field ("speed" would
// otherwise decode as an identical-machines instance).
func TestInstanceJSONRejectsUnknownField(t *testing.T) {
	for _, doc := range []string{
		`{"machines":3,"speed":[1,2,4],"jobs":[{"id":0,"size":1,"bag":0}]}`,
		`{"machines":1,"jobs":[{"id":0,"size":1,"bag":0,"weight":2}]}`,
	} {
		var in Instance
		if err := json.Unmarshal([]byte(doc), &in); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: got %v, want an unknown-field error", doc, err)
		}
		if _, err := ReadInstance(strings.NewReader(doc)); err == nil {
			t.Errorf("ReadInstance accepted %s", doc)
		}
	}
	var in Instance
	if err := in.UnmarshalJSON([]byte(`{"machines":1,"jobs":[]} 1`)); !errors.Is(err, errTrailingData) {
		t.Errorf("trailing data: got %v, want errTrailingData", err)
	}
}

// FuzzInstanceJSON holds the fast path to its contract: for any input it
// either declines or returns exactly the reference decoder's Instance,
// and it declines whenever the reference returns an error.
//
//	go test -run '^$' -fuzz FuzzInstanceJSON -fuzztime 30s ./internal/sched
func FuzzInstanceJSON(f *testing.F) {
	for _, d := range corpusDocs(f) {
		f.Add(d)
	}
	for _, d := range canonicalDocs {
		f.Add([]byte(d))
	}
	for _, d := range declinedDocs {
		f.Add([]byte(d))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := decodeCanonical(data)
		if !ok {
			return
		}
		want, err := decodeReference(data)
		if err != nil {
			t.Fatalf("fast path accepted input the reference rejects (%v): %q", err, data)
		}
		if !sameInstance(got, want) {
			t.Fatalf("fast path decoded %+v, reference %+v, from %q", got, want, data)
		}
	})
}

// validateWithMap is Validate's earlier duplicate check, kept as the
// reference the map-free check must agree with.
func validateWithMap(in *Instance) error {
	seen := make(map[JobID]bool, len(in.Jobs))
	for i, j := range in.Jobs {
		if j.Size <= 0 {
			return fmt.Errorf("sched: job %d (id %d) has non-positive size %g", i, j.ID, j.Size)
		}
		if j.Bag < 0 || j.Bag >= in.NumBags {
			return fmt.Errorf("sched: job %d (id %d) has bag %d outside [0,%d)", i, j.ID, j.Bag, in.NumBags)
		}
		if seen[j.ID] {
			return fmt.Errorf("sched: duplicate job id %d", j.ID)
		}
		seen[j.ID] = true
	}
	return nil
}

func TestValidateFirstErrorMatchesMapCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		in := NewInstance(1 + rng.Intn(3))
		in.NumBags = 1 + rng.Intn(4)
		n := rng.Intn(12)
		for i := 0; i < n; i++ {
			j := Job{ID: JobID(i), Size: 1, Bag: rng.Intn(in.NumBags)}
			switch rng.Intn(6) {
			case 0:
				j.ID = JobID(rng.Intn(n + 1))
			case 1:
				j.ID = JobID(n - i)
			case 2:
				if rng.Intn(8) == 0 {
					j.Size = 0
				}
			case 3:
				if rng.Intn(8) == 0 {
					j.Bag = in.NumBags
				}
			}
			in.Jobs = append(in.Jobs, j)
		}
		got, want := in.Validate(), validateWithMap(in)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d, jobs %+v: Validate = %v, map check = %v", trial, in.Jobs, got, want)
		}
	}
}

func TestSortedJobIdxDescMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		in := NewInstance(2)
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			in.AddJob(float64(1+rng.Intn(4)), 0)
			in.Jobs[i].ID = JobID(rng.Intn(5)) // ties on size and ID
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			ja, jb := in.Jobs[want[a]], in.Jobs[want[b]]
			if ja.Size != jb.Size {
				return ja.Size > jb.Size
			}
			return ja.ID < jb.ID
		})
		got := in.SortedJobIdxDesc()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, stable sort %v", trial, got, want)
			}
		}
	}
}
