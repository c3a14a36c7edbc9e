package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/wire"
)

// resolved is one decoded body as the handler resolves it: the spec,
// and for a /v1/resolve body the delta and the reconstructed prior.
type resolved struct {
	sp    *spec
	delta *sched.Delta
	prior *core.Result
}

// A parser decodes a body strictly and resolves it as its handler
// does, into the decoded request and one resolved spec per solve.
type parser func(body []byte) (doc any, specs []*resolved, err error)

func solveParser(s *Server) parser {
	return func(body []byte) (any, []*resolved, error) {
		var req wire.SolveRequest
		if err := wire.Unmarshal(body, &req); err != nil {
			return nil, nil, err
		}
		sp, err := s.resolve(req.Instance, req.EffectiveSpec())
		return &req, []*resolved{{sp: sp}}, err
	}
}

func resolveParser(s *Server) parser {
	return func(body []byte) (any, []*resolved, error) {
		var req wire.ResolveRequest
		if err := wire.Unmarshal(body, &req); err != nil {
			return nil, nil, err
		}
		sp, prior, err := s.resolveDelta(&req)
		return &req, []*resolved{{sp: sp, delta: &req.Delta, prior: prior}}, err
	}
}

// batchParser resolves every instance of a /v1/batch body under the
// batch's effective spec.
func batchParser(s *Server) parser {
	return func(body []byte) (any, []*resolved, error) {
		var req wire.BatchRequest
		if err := wire.Unmarshal(body, &req); err != nil {
			return nil, nil, err
		}
		spec := req.EffectiveSpec()
		specs := make([]*resolved, len(req.Instances))
		for i, in := range req.Instances {
			sp, err := s.resolve(in, spec)
			if err != nil {
				return nil, nil, err
			}
			specs[i] = &resolved{sp: sp}
		}
		return &req, specs, nil
	}
}

// specDiff names the first part in which two resolved bodies differ, or
// returns "" when they are the same request: the same instance, the same
// core.Options and family name, and for resolves the same delta and
// prior facts. Nil and empty slices are alike, and floats compare with
// ==, so -0 matches 0: the two mean the same to every knob and prior
// fact, and json.Marshal drops a -0 omitempty field.
func specDiff(a, b *resolved) string {
	x, y := a.sp.in, b.sp.in
	switch {
	case x.Machines != y.Machines:
		return "machines"
	case x.NumBags != y.NumBags:
		return "num_bags"
	case !slices.Equal(x.Speeds, y.Speeds):
		return "speeds"
	case !slices.Equal(x.Jobs, y.Jobs):
		return "jobs"
	case a.sp.fam != b.sp.fam:
		return "family name"
	case !reflect.DeepEqual(a.sp.opt, b.sp.opt):
		return "options"
	case (a.delta == nil) != (b.delta == nil):
		return "resolve or solve"
	case a.delta == nil:
		return ""
	}
	d, e := a.delta, b.delta
	switch {
	case !slices.Equal(d.Add, e.Add):
		return "delta add"
	case !slices.Equal(d.Remove, e.Remove):
		return "delta remove"
	case !slices.Equal(d.Resize, e.Resize):
		return "delta resize"
	case !slices.Equal(d.Rebag, e.Rebag):
		return "delta rebag"
	case d.Machines != e.Machines:
		return "delta machines"
	case !slices.Equal(d.AddSpeeds, e.AddSpeeds):
		return "delta add_speeds"
	case a.prior.Makespan != b.prior.Makespan:
		return "prior_makespan"
	case a.prior.Stats.FinalGuess != b.prior.Stats.FinalGuess:
		return "prior_guess"
	case !slices.Equal(priorAssignment(a.prior), priorAssignment(b.prior)):
		return "prior_assignment"
	}
	return ""
}

func priorAssignment(p *core.Result) []int {
	if p.Schedule == nil {
		return nil
	}
	return p.Schedule.Machine
}

// mustResolve parses a one-solve body and fails the test on any error.
func mustResolve(t *testing.T, p parser, body string) *resolved {
	t.Helper()
	_, specs, err := p([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return specs[0]
}

// roundTrip checks the property the request fuzz targets share: a body
// p accepts, re-encoded with json.Marshal, is accepted again and
// resolves to the same specs (see specDiff).
func roundTrip(t *testing.T, p parser, body []byte) {
	doc, want, err := p(body)
	if err != nil {
		return
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("re-encoding an accepted body: %v", err)
	}
	_, got, err := p(raw)
	if err != nil {
		t.Fatalf("re-encoded body %s rejected: %v", raw, err)
	}
	if len(got) != len(want) {
		t.Fatalf("re-encoded body %s resolves %d solves, want %d", raw, len(got), len(want))
	}
	for i := range want {
		if d := specDiff(got[i], want[i]); d != "" {
			t.Fatalf("re-encoded body %s changes the %s of solve %d of %q", raw, d, i, body)
		}
	}
}

const keyBase = `{"instance":{"machines":3,"num_bags":2,"jobs":[{"id":0,"size":2,"bag":0},{"id":1,"size":1.5,"bag":1},{"id":2,"size":1,"bag":0}]},"eps":0.5}`

// TestCoalescingKey, named for the request key it used to pin, checks
// specDiff, the comparator the request fuzz targets rely on: bodies
// that spell one request differently resolve to the same spec, and a
// body that changes any part of the instance or any knob resolves to a
// different one. oracle_workers is accepted but selects nothing, so it
// leaves the spec alone.
func TestCoalescingKey(t *testing.T) {
	s := New(Config{Workers: 1})
	solve := solveParser(s)
	base := mustResolve(t, solve, keyBase)
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
			if d := specDiff(mustResolve(t, solve, body), base); d != "" {
				t.Errorf("%s changed", d)
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
	for name, body := range differ {
		t.Run("differs/"+name, func(t *testing.T) {
			if specDiff(mustResolve(t, solve, body), base) == "" {
				t.Error("resolves to the spec of the base body")
			}
		})
	}
	t.Run("resolve", func(t *testing.T) { testResolveKey(t, s) })
}

const resolveBase = `{"instance":{"machines":3,"num_bags":2,"jobs":[{"id":0,"size":2,"bag":0},{"id":1,"size":1.5,"bag":1},{"id":2,"size":1,"bag":0}]},` +
	`"delta":{"add":[{"id":7,"size":0.5,"bag":1}],"remove":[0],"resize":[{"id":1,"size":1.25}],"rebag":[{"id":2,"bag":1}],"machines":1,"add_speeds":[2]},` +
	`"prior_makespan":3.5,"prior_guess":3.25,"prior_assignment":[0,1,2],"eps":0.5}`

// testResolveKey: specDiff compares a resolve's delta and prior facts on
// top of the plain solve's spec; respellings leave them alike and every
// part of them tells them apart.
func testResolveKey(t *testing.T, s *Server) {
	resolve := resolveParser(s)
	base := mustResolve(t, resolve, resolveBase)
	if specDiff(base, mustResolve(t, solveParser(s), keyBase)) == "" {
		t.Fatal("a resolve is alike its plain solve")
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
			if d := specDiff(mustResolve(t, resolve, body), base); d != "" {
				t.Errorf("%s changed", d)
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
	for name, body := range differ {
		t.Run("differs/"+name, func(t *testing.T) {
			if specDiff(mustResolve(t, resolve, body), base) == "" {
				t.Error("resolves to the spec of the base body")
			}
		})
	}
}

// FuzzSolveRequest drives arbitrary /v1/solve bodies through the strict
// decode and resolve: neither may panic, and an accepted body re-encoded
// with json.Marshal must resolve to the same spec.
//
//	go test -run '^$' -fuzz FuzzSolveRequest -fuzztime 30s ./internal/server
func FuzzSolveRequest(f *testing.F) {
	f.Add([]byte(keyBase))
	f.Add([]byte(`{"instance":{"machines":2,"speeds":[1,2],"jobs":[{"id":0,"size":1,"bag":0}]},"family":"related","spec":{"eps":0.3,"adaptive":true,"deadline_ms":5}}`))
	f.Add([]byte(`{"instance":{"machines":3,"speed":[1,2,4],"jobs":[{"id":0,"size":1,"bag":0}]},"family":"related"}`))
	f.Add([]byte(`{"instance":{"Machines":1,"jobs":[{"id":0,"size":1e2,"bag":0}]},"oracle_workers":-1}`))
	f.Add([]byte(`{"instance":null,"eps":2}`))
	f.Add([]byte(`{"instance": `))
	// json.Marshal drops a -0 min_quality (omitempty), so the re-encoded
	// body must resolve alike.
	f.Add([]byte(`{"instance":{"machines":1,"jobs":[{"id":0,"size":1,"bag":0}]},"min_quality":-0}`))
	p := solveParser(New(Config{Workers: 1}))
	f.Fuzz(func(t *testing.T, body []byte) { roundTrip(t, p, body) })
}

// FuzzResolveRequest drives arbitrary /v1/resolve bodies through the
// strict decode and resolveDelta: neither may panic, and an accepted
// body re-encoded with json.Marshal must resolve to the same spec,
// delta and prior facts.
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
	p := resolveParser(New(Config{Workers: 1}))
	f.Fuzz(func(t *testing.T, body []byte) { roundTrip(t, p, body) })
}

// FuzzBatchRequest drives arbitrary /v1/batch bodies through the strict
// decode, the batch's effective spec and resolve on every instance, as
// the handler does: none may panic, and an accepted body re-encoded with
// json.Marshal must resolve to the same per-item specs.
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
	p := batchParser(New(Config{Workers: 1}))
	f.Fuzz(func(t *testing.T, body []byte) { roundTrip(t, p, body) })
}
