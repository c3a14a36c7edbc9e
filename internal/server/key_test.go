package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
)

// keyOf decodes body strictly and resolves its coalescing key.
func keyOf(t testing.TB, s *Server, body string) ([32]byte, error) {
	t.Helper()
	var req wire.SolveRequest
	if err := wire.Unmarshal([]byte(body), &req); err != nil {
		return [32]byte{}, err
	}
	sp, err := s.resolve(req.Instance, req.EffectiveSpec())
	if err != nil {
		return [32]byte{}, err
	}
	return sp.key, nil
}

const keyBase = `{"instance":{"machines":3,"num_bags":2,"jobs":[{"id":0,"size":2,"bag":0},{"id":1,"size":1.5,"bag":1},{"id":2,"size":1,"bag":0}]},"eps":0.5}`

// TestCoalescingKey: the key is a function of the decoded instance and
// the resolved knobs, not of the body's spelling, and every part of
// either changes it. oracle_workers is accepted but selects nothing, so
// it leaves the key alone.
func TestCoalescingKey(t *testing.T) {
	s := New(Config{Workers: 1})
	base, err := keyOf(t, s, keyBase)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) string {
		if !strings.Contains(keyBase, old) {
			t.Fatalf("base body has no %q", old)
		}
		return strings.Replace(keyBase, old, new, 1)
	}
	same := map[string]string{
		"whitespace":                           "{ \"instance\" : {\n\"machines\": 3, \"num_bags\": 2, \"jobs\": [ {\"id\": 0, \"size\": 2, \"bag\": 0},\n{\"id\":1,\"size\":1.5,\"bag\":1}, {\"id\":2,\"size\":1,\"bag\":0} ] },\t\"eps\": 0.5 }",
		"key order":                            `{"eps":0.5,"instance":{"jobs":[{"bag":0,"size":2,"id":0},{"size":1.5,"id":1,"bag":1},{"id":2,"bag":0,"size":1}],"num_bags":2,"machines":3}}`,
		"number spelling":                      `{"instance":{"machines":3,"num_bags":2,"jobs":[{"id":0,"size":2.0,"bag":0},{"id":1,"size":15e-1,"bag":1},{"id":2,"size":1.00,"bag":0}]},"eps":5E-1}`,
		"num_bags implied by the jobs":         `{"instance":{"machines":3,"jobs":[{"id":0,"size":2,"bag":0},{"id":1,"size":1.5,"bag":1},{"id":2,"size":1,"bag":0}]},"eps":0.5}`,
		"nested spec":                          `{"instance":{"machines":3,"num_bags":2,"jobs":[{"id":0,"size":2,"bag":0},{"id":1,"size":1.5,"bag":1},{"id":2,"size":1,"bag":0}]},"spec":{"eps":0.5}}`,
		"server default eps":                   `{"instance":{"machines":3,"num_bags":2,"jobs":[{"id":0,"size":2,"bag":0},{"id":1,"size":1.5,"bag":1},{"id":2,"size":1,"bag":0}]}}`,
		"timeout (each waiter bounds its own)": `{"instance":{"machines":3,"num_bags":2,"jobs":[{"id":0,"size":2,"bag":0},{"id":1,"size":1.5,"bag":1},{"id":2,"size":1,"bag":0}]},"eps":0.5,"timeout_ms":70}`,
		"workers":                              edit(`"eps":0.5`, `"eps":0.5,"oracle_workers":2`),
	}
	for name, body := range same {
		t.Run("same/"+name, func(t *testing.T) {
			k, err := keyOf(t, s, body)
			if err != nil {
				t.Fatal(err)
			}
			if k != base {
				t.Error("key changed")
			}
		})
	}
	differ := map[string]string{
		"machines":    edit(`"machines":3`, `"machines":4`),
		"num_bags":    edit(`"num_bags":2`, `"num_bags":3`),
		"job id":      edit(`"id":2,`, `"id":5,`),
		"job size":    edit(`"size":1.5`, `"size":1.25`),
		"job bag":     edit(`"size":1,"bag":0`, `"size":1,"bag":1`),
		"job order":   edit(`{"id":0,"size":2,"bag":0},{"id":1,"size":1.5,"bag":1}`, `{"id":1,"size":1.5,"bag":1},{"id":0,"size":2,"bag":0}`),
		"speeds":      edit(`"num_bags":2,`, `"num_bags":2,"speeds":[1,1,1],`),
		"eps":         edit(`"eps":0.5`, `"eps":0.25`),
		"backend":     edit(`"eps":0.5`, `"eps":0.5,"backend":"cfgdp"`),
		"family":      edit(`"eps":0.5`, `"eps":0.5,"family":"identical"`),
		"no_cache":    edit(`"eps":0.5`, `"eps":0.5,"no_cache":true`),
		"deadline_ms": edit(`"eps":0.5`, `"eps":0.5,"deadline_ms":20`),
		"min_quality": edit(`"eps":0.5`, `"eps":0.5,"min_quality":1.5`),
		"adaptive":    edit(`"eps":0.5`, `"eps":0.5,"adaptive":true`),
	}
	seen := map[[32]byte]string{base: "base"}
	for name, body := range differ {
		t.Run("differs/"+name, func(t *testing.T) {
			k, err := keyOf(t, s, body)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := seen[k]; ok {
				t.Errorf("key equals the key of %s", prev)
			}
			seen[k] = name
		})
	}
	t.Run("resolve", func(t *testing.T) { testResolveKey(t, s, base) })
}

// resolveKeyOf decodes a /v1/resolve body strictly and resolves its
// coalescing key.
func resolveKeyOf(t testing.TB, s *Server, body string) ([32]byte, error) {
	t.Helper()
	var req wire.ResolveRequest
	if err := wire.Unmarshal([]byte(body), &req); err != nil {
		return [32]byte{}, err
	}
	sp, _, err := s.resolveDelta(&req)
	if err != nil {
		return [32]byte{}, err
	}
	return sp.key, nil
}

const resolveBase = `{"instance":{"machines":3,"num_bags":2,"jobs":[{"id":0,"size":2,"bag":0},{"id":1,"size":1.5,"bag":1},{"id":2,"size":1,"bag":0}]},` +
	`"delta":{"add":[{"id":7,"size":0.5,"bag":1}],"remove":[0],"resize":[{"id":1,"size":1.25}],"rebag":[{"id":2,"bag":1}],"machines":1,"add_speeds":[2]},` +
	`"prior_makespan":3.5,"prior_guess":3.25,"prior_assignment":[0,1,2],"eps":0.5}`

// testResolveKey: a resolve's key is a function of the decoded delta and
// prior facts on top of the plain solve's identity; every part of them
// changes it, and it never equals the plain solve's key (plain is the
// key of keyBase, the same instance and knobs).
func testResolveKey(t *testing.T, s *Server, plain [32]byte) {
	base, err := resolveKeyOf(t, s, resolveBase)
	if err != nil {
		t.Fatal(err)
	}
	if base == plain {
		t.Fatal("a resolve shares the key of its plain solve")
	}
	empty, err := resolveKeyOf(t, s, `{"instance":{"machines":3,"num_bags":2,"jobs":[{"id":0,"size":2,"bag":0},{"id":1,"size":1.5,"bag":1},{"id":2,"size":1,"bag":0}]},"delta":{},"prior_makespan":0,"eps":0.5}`)
	if err != nil {
		t.Fatal(err)
	}
	if empty == plain {
		t.Fatal("an empty resolve without prior facts shares the key of its plain solve")
	}
	same := map[string]string{
		"whitespace": strings.ReplaceAll(strings.ReplaceAll(resolveBase, ",", " ,\n "), ":", " : "),
		"key order": `{"eps":0.5,"prior_assignment":[0,1,2],"prior_guess":3.25,"prior_makespan":3.5,` +
			`"delta":{"add_speeds":[2],"machines":1,"rebag":[{"bag":1,"id":2}],"resize":[{"size":1.25,"id":1}],"remove":[0],"add":[{"bag":1,"size":0.5,"id":7}]},` +
			`"instance":{"jobs":[{"id":0,"size":2,"bag":0},{"id":1,"size":1.5,"bag":1},{"id":2,"size":1,"bag":0}],"num_bags":2,"machines":3}}`,
		"number spelling": strings.NewReplacer(`"size":0.5`, `"size":5e-1`, `"size":1.25`, `"size":125E-2`,
			`"prior_makespan":3.5`, `"prior_makespan":3.50`, `"add_speeds":[2]`, `"add_speeds":[2.0]`).Replace(resolveBase),
		"field case": strings.Replace(resolveBase, `{"id":7,"size":0.5,"bag":1}`, `{"ID":7,"Size":0.5,"Bag":1}`, 1),
	}
	for name, body := range same {
		t.Run("same/"+name, func(t *testing.T) {
			k, err := resolveKeyOf(t, s, body)
			if err != nil {
				t.Fatal(err)
			}
			if k != base {
				t.Error("key changed")
			}
		})
	}
	edit := func(old, new string) string {
		if !strings.Contains(resolveBase, old) {
			t.Fatalf("resolve base body has no %q", old)
		}
		return strings.Replace(resolveBase, old, new, 1)
	}
	differ := map[string]string{
		"add":              edit(`{"id":7,"size":0.5,"bag":1}`, `{"id":7,"size":0.75,"bag":1}`),
		"add count":        edit(`"add":[{"id":7,"size":0.5,"bag":1}]`, `"add":[{"id":7,"size":0.5,"bag":1},{"id":8,"size":1,"bag":0}]`),
		"remove":           edit(`"remove":[0]`, `"remove":[1]`),
		"resize":           edit(`{"id":1,"size":1.25}`, `{"id":1,"size":1.5}`),
		"rebag":            edit(`{"id":2,"bag":1}`, `{"id":2,"bag":0}`),
		"machines":         edit(`"machines":1,"add_speeds"`, `"machines":2,"add_speeds"`),
		"add_speeds":       edit(`"add_speeds":[2]`, `"add_speeds":[3]`),
		"no remove":        edit(`"remove":[0],`, ``),
		"prior_makespan":   edit(`"prior_makespan":3.5`, `"prior_makespan":3.75`),
		"prior_guess":      edit(`"prior_guess":3.25`, `"prior_guess":3.5`),
		"prior_assignment": edit(`"prior_assignment":[0,1,2]`, `"prior_assignment":[0,1,1]`),
		"no assignment":    edit(`"prior_assignment":[0,1,2],`, ``),
		"repair":           edit(`"eps":0.5}`, `"eps":0.5,"repair":true}`),
		"eps":              edit(`"eps":0.5}`, `"eps":0.25}`),
		"instance":         edit(`{"id":1,"size":1.5,"bag":1}`, `{"id":1,"size":1.75,"bag":1}`),
	}
	seen := map[[32]byte]string{base: "base", plain: "plain solve", empty: "empty resolve"}
	for name, body := range differ {
		t.Run("differs/"+name, func(t *testing.T) {
			k, err := resolveKeyOf(t, s, body)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := seen[k]; ok {
				t.Errorf("key equals the key of %s", prev)
			}
			seen[k] = name
		})
	}
}

// FuzzSolveRequest drives arbitrary /v1/solve bodies through the strict
// decode and resolve: neither may panic, and an accepted body re-encoded
// with json.Marshal must decode to the same coalescing key.
//
//	go test -run '^$' -fuzz FuzzSolveRequest -fuzztime 30s ./internal/server
func FuzzSolveRequest(f *testing.F) {
	f.Add([]byte(keyBase))
	f.Add([]byte(`{"instance":{"machines":2,"speeds":[1,2],"jobs":[{"id":0,"size":1,"bag":0}]},"family":"related","spec":{"eps":0.3,"adaptive":true,"deadline_ms":5}}`))
	f.Add([]byte(`{"instance":{"machines":3,"speed":[1,2,4],"jobs":[{"id":0,"size":1,"bag":0}]},"family":"related"}`))
	f.Add([]byte(`{"instance":{"Machines":1,"jobs":[{"id":0,"size":1e2,"bag":0}]},"oracle_workers":-1}`))
	f.Add([]byte(`{"instance":null,"eps":2}`))
	f.Add([]byte(`{"instance": `))
	// json.Marshal drops a -0 min_quality (omitempty), so its key must
	// not tell -0 from 0.
	f.Add([]byte(`{"instance":{"machines":1,"jobs":[{"id":0,"size":1,"bag":0}]},"min_quality":-0}`))
	s := New(Config{Workers: 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req wire.SolveRequest
		if err := wire.Unmarshal(body, &req); err != nil {
			return
		}
		sp, err := s.resolve(req.Instance, req.EffectiveSpec())
		if err != nil {
			return
		}
		again, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("re-encoding an accepted body: %v", err)
		}
		k, err := keyOf(t, s, string(again))
		if err != nil {
			t.Fatalf("re-encoded body %s rejected: %v", again, err)
		}
		if k != sp.key {
			t.Fatalf("re-encoded body %s has a different key than %q", again, body)
		}
	})
}

// FuzzResolveRequest drives arbitrary /v1/resolve bodies through the
// strict decode and resolveDelta: neither may panic, and an accepted
// body re-encoded with json.Marshal must decode to the same coalescing
// key.
//
//	go test -run '^$' -fuzz FuzzResolveRequest -fuzztime 30s ./internal/server
func FuzzResolveRequest(f *testing.F) {
	f.Add([]byte(resolveBase))
	golden, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "resolve_legacy.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"instance":{"machines":2,"speeds":[1,2],"jobs":[{"id":0,"size":1,"bag":0}]},"delta":{"machines":-1},"prior_makespan":1,"prior_guess":-0,"family":"related"}`))
	f.Add([]byte(`{"instance":{"machines":1,"jobs":[{"id":0,"size":1,"bag":0}]},"delta":{"remove":[0,0]},"prior_makespan":-1}`))
	f.Add([]byte(`{"instance":{"machines":1,"jobs":[{"id":0,"size":1,"bag":0}]},"delta":{},"prior_makespan":1,"repair":true}`))
	f.Add([]byte(`{"instance":null,"delta":{"add":[{"ID":1}]}}`))
	f.Add([]byte(`{"delta": `))
	s := New(Config{Workers: 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req wire.ResolveRequest
		if err := wire.Unmarshal(body, &req); err != nil {
			return
		}
		sp, _, err := s.resolveDelta(&req)
		if err != nil {
			return
		}
		again, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("re-encoding an accepted body: %v", err)
		}
		k, err := resolveKeyOf(t, s, string(again))
		if err != nil {
			t.Fatalf("re-encoded body %s rejected: %v", again, err)
		}
		if k != sp.key {
			t.Fatalf("re-encoded body %s has a different key than %q", again, body)
		}
	})
}

// FuzzBatchRequest drives arbitrary /v1/batch bodies through the strict
// decode, the batch's effective spec and resolve on every instance, as
// the handler does: none may panic, and an accepted body re-encoded with
// json.Marshal must decode to the same per-item coalescing keys.
//
//	go test -run '^$' -fuzz '^FuzzBatchRequest$' -fuzztime 30s ./internal/server
func FuzzBatchRequest(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "batch_legacy.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"instances":[{"machines":2,"jobs":[{"id":0,"size":1,"bag":0}]},{"machines":2,"speeds":[1,2],"jobs":[{"id":0,"size":1,"bag":0}]}],"spec":{"eps":0.3,"family":"related","adaptive":true,"deadline_ms":5}}`))
	f.Add([]byte(`{"instances":[]}`))
	f.Add([]byte(`{"instances":[{"machines":1,"jobs":[{"id":0,"size":1,"bag":0}]}],"backend":"portfolio"}`))
	s := New(Config{Workers: 1})
	keys := func(req *wire.BatchRequest) ([][32]byte, error) {
		spec := req.EffectiveSpec()
		out := make([][32]byte, len(req.Instances))
		for i, in := range req.Instances {
			sp, err := s.resolve(in, spec)
			if err != nil {
				return nil, err
			}
			out[i] = sp.key
		}
		return out, nil
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req wire.BatchRequest
		if err := wire.Unmarshal(body, &req); err != nil {
			return
		}
		want, err := keys(&req)
		if err != nil {
			return
		}
		again, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("re-encoding an accepted body: %v", err)
		}
		var req2 wire.BatchRequest
		if err := wire.Unmarshal(again, &req2); err != nil {
			t.Fatalf("re-encoded body %s does not decode: %v", again, err)
		}
		got, err := keys(&req2)
		if err != nil {
			t.Fatalf("re-encoded body %s rejected: %v", again, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("re-encoded body %s has different keys than %q", again, body)
		}
	})
}
