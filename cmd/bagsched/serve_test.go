package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	bagsched "repro"
)

// warmCache returns a cache holding the entries of one small solve.
func warmCache(t *testing.T) *bagsched.Cache {
	t.Helper()
	in := bagsched.NewInstance(2)
	for i, size := range []float64{0.9, 0.7, 0.5, 0.4, 0.2} {
		in.AddJob(size, i%3)
	}
	c := bagsched.NewCache(0)
	if _, err := bagsched.SolveEPTAS(in, 0.5, bagsched.WithSharedCache(c), bagsched.WithSpeculation(1)); err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("solve left the cache empty")
	}
	return c
}

// TestServeSnapshotPersistence: at shutdown a snapshot file is written
// when boot found no file or loaded it, and left byte for byte as it was
// when boot could not load it — the server ran cold, and its cold state
// must not replace the file.
func TestServeSnapshotPersistence(t *testing.T) {
	var good bytes.Buffer
	if _, err := bagsched.ExportCacheSnapshot(warmCache(t), &good); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte{}, good.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0xff

	var goodPlan bytes.Buffer
	planner := bagsched.NewPlanModel()
	if err := bagsched.ImportPlanModel(planner, bytes.NewReader([]byte(`{"format": 1, "version": 1, "observations": 1, "cells": [
		{"family": "bags", "size": 5, "rung": "eptas", "eps_idx": 6, "backend": "bnb", "mean_us": 5000, "count": 1}]}`))); err != nil {
		t.Fatal(err)
	}
	if err := bagsched.ExportPlanModel(planner, &goodPlan); err != nil {
		t.Fatal(err)
	}
	poisoned := bytes.Replace(goodPlan.Bytes(), []byte(`"mean_us": 5000`), []byte(`"mean_us": -5000`), 1)
	if bytes.Equal(poisoned, goodPlan.Bytes()) {
		t.Fatal("poisoned plan document equals the good one")
	}

	for _, tc := range []struct {
		name     string
		plan     bool   // a plan snapshot instead of a cache snapshot
		contents []byte // nil: no file at boot
		loads    bool
	}{
		{"cache/missing", false, nil, true},
		{"cache/good", false, good.Bytes(), true},
		{"cache/corrupt", false, corrupt, false},
		{"plan/missing", true, nil, true},
		{"plan/good", true, goodPlan.Bytes(), true},
		{"plan/poisoned", true, poisoned, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "snapshot")
			if tc.contents != nil {
				if err := os.WriteFile(path, tc.contents, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var writable bool
			var save func(string) error
			if tc.plan {
				m := bagsched.NewPlanModel()
				writable = loadPlanSnapshot(m, path)
				save = func(p string) error { return savePlanSnapshot(m, p) }
			} else {
				c := bagsched.NewCache(0)
				_, _, warmed, w := loadSnapshot(c, path)
				if warmed != (tc.contents != nil && tc.loads) {
					t.Fatalf("warmed = %v", warmed)
				}
				writable = w
				save = func(p string) error { return saveSnapshot(c, p) }
			}
			if writable != tc.loads {
				t.Fatalf("writable = %v, want %v", writable, tc.loads)
			}
			persist("snapshot", path, writable, save)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no file after shutdown: %v", err)
			}
			switch {
			case !tc.loads && !bytes.Equal(got, tc.contents):
				t.Fatal("shutdown replaced a snapshot the boot could not load")
			case tc.loads && tc.contents != nil && !bytes.Equal(got, tc.contents):
				// A loaded snapshot re-exported unchanged is the same
				// document: the server saves what it loaded.
				t.Fatalf("re-saved snapshot differs from the one loaded (%d vs %d bytes)", len(got), len(tc.contents))
			}
		})
	}
}
