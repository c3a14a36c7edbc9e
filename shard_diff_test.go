package bagsched

// Shard-differential test of the serving layer: a consistent-hash
// router fronting N replicas must be answer-invisible — every solve
// through the router, under concurrent clients and across repeated
// (warm) passes, must agree bit for bit with the same solve against a
// single standalone replica. Under `make race` it exercises the
// router's decode/route/forward path, the fallback machinery and the
// per-replica caches under the race detector.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/shard"
)

// postSolve sends one solve request and returns the decoded reply.
func postSolve(base string, raw json.RawMessage, fam string, eps float64) (makespan float64, err error) {
	body, err := json.Marshal(map[string]any{"instance": raw, "eps": eps, "family": fam})
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var reply struct {
		Makespan float64 `json:"makespan"`
		Error    string  `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, reply.Error)
	}
	return reply.Makespan, nil
}

func TestShardRouterDifferential(t *testing.T) {
	files := instanceFixtures(t)
	if len(files) == 0 {
		t.Fatal("no fixtures under testdata/")
	}
	const eps = 0.5

	type fixture struct {
		name string
		raw  json.RawMessage
		fam  string
	}
	var corpus []fixture
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		in := readFixture(t, path)
		fam := "bags"
		if !in.Uniform() {
			fam = "related"
		}
		corpus = append(corpus, fixture{filepath.Base(path), raw, fam})
	}

	// The reference: one standalone replica.
	single := server.New(server.Config{})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	// The subject: three replicas behind a consistent-hash router. Every
	// fixture is in flight at once and consistent hashing may land them
	// all on one replica, so give each replica an admission queue deep
	// enough to hold the whole corpus — this test is about answers, not
	// load shedding (the shard package tests cover 503 fallback).
	const nReplicas = 3
	var urls []string
	for i := 0; i < nReplicas; i++ {
		ts := httptest.NewServer(server.New(server.Config{QueueDepth: 2 * len(corpus)}).Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	rt, err := shard.New(shard.Config{Replicas: urls, HealthInterval: -1, RetryBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	want := make([]float64, len(corpus))
	for i, fx := range corpus {
		m, err := postSolve(singleTS.URL, fx.raw, fx.fam, eps)
		if err != nil {
			t.Fatalf("%s: single replica: %v", fx.name, err)
		}
		want[i] = m
	}

	// Two passes through the router — cold then warm — with every
	// fixture in flight concurrently. Pass 2 hits the per-replica caches
	// the router's placement built in pass 1.
	for pass := 1; pass <= 2; pass++ {
		var wg sync.WaitGroup
		errs := make([]error, len(corpus))
		for i, fx := range corpus {
			wg.Add(1)
			go func(i int, fx fixture) {
				defer wg.Done()
				m, err := postSolve(front.URL, fx.raw, fx.fam, eps)
				if err != nil {
					errs[i] = fmt.Errorf("%s: routed: %w", fx.name, err)
					return
				}
				if m != want[i] {
					errs[i] = fmt.Errorf("%s: routed makespan %.17g, single replica %.17g — routing must be answer-invisible",
						fx.name, m, want[i])
				}
			}(i, fx)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
		}
	}
}
