package pipeline

import (
	"context"
	"testing"

	"repro/internal/family"
	"repro/internal/memo"
	"repro/internal/sched"
)

// TestFamilyMemoNoFalseSharing pins the family half of the memo key: two
// engines sharing one cache, identical in every Config knob and solving
// the very same singleton-bag instance (identical numeric signature,
// identical config hash), must NOT share entries when they run as
// different families — only the family fingerprint separates them, and a
// collision would serve one family's plan to the other's pipeline.
func TestFamilyMemoNoFalseSharing(t *testing.T) {
	// Singleton bags make the instance valid for every family; unit
	// speeds make Related's scaled instance bit-identical to the others.
	in := sched.NewInstance(3)
	for i, size := range []float64{0.9, 0.8, 0.7, 0.4, 0.3, 0.2} {
		in.AddJob(size, i)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	const guess = 1.2
	ctx := context.Background()
	shared := memo.New(0)
	cfg := func(f family.Family) Config {
		return Config{Eps: 0.5, Cache: shared, Family: f}
	}

	// Same family, second engine: the shared cache must serve the hit
	// (this is the sharing the fingerprint must not break).
	a1 := New(cfg(family.Identical))
	if _, err := a1.Run(ctx, in, guess); err != nil {
		t.Fatal(err)
	}
	a2 := New(cfg(family.Identical))
	res, err := a2.Run(ctx, in, guess)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("same-family engine missed the shared cache")
	}

	// Different families, same signature and config hash: every one must
	// miss the others' entries.
	for _, f := range []family.Family{family.Bags, family.Related} {
		e := New(cfg(f))
		res, err := e.Run(ctx, in, guess)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if res.CacheHit {
			t.Errorf("%s shared a memo entry with another family (false sharing)", f.Name())
		}
		m := e.Metrics()
		if m.CacheMisses != 1 || m.CacheHits != 0 {
			t.Errorf("%s: hits %d misses %d, want 0/1", f.Name(), m.CacheHits, m.CacheMisses)
		}
	}

	// The shapes must also have produced family-appropriate entries: a
	// related entry records the related parts, a bags entry the bags
	// parts — a cross-served entry would have the wrong ones.
	rel := New(cfg(family.Related))
	rres, err := rel.Run(ctx, in, guess)
	if err != nil {
		t.Fatal(err)
	}
	if !rres.CacheHit {
		t.Error("second related engine missed the shared cache")
	}
	if rres.Parts != PartRelInfo|PartRelSpace {
		t.Errorf("related result has parts %b, want the related classification and space", rres.Parts)
	}
}
