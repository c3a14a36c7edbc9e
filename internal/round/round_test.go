package round

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

func TestUpGeometricBasics(t *testing.T) {
	tests := []struct {
		size, eps float64
	}{
		{1, 0.5}, {0.3, 0.5}, {2.7, 0.5}, {1e-4, 0.5}, {1, 0.1}, {7.3, 0.25},
	}
	for _, tt := range tests {
		v, e := UpGeometric(tt.size, tt.eps)
		if v < tt.size-1e-12 {
			t.Errorf("UpGeometric(%g,%g) = %g below input", tt.size, tt.eps, v)
		}
		if v > tt.size*(1+tt.eps)+1e-9 {
			t.Errorf("UpGeometric(%g,%g) = %g exceeds (1+eps)*size", tt.size, tt.eps, v)
		}
		if math.Abs(Value(e, tt.eps)-v) > 1e-12 {
			t.Errorf("exponent mismatch for %g", tt.size)
		}
	}
}

func TestUpGeometricExactPower(t *testing.T) {
	// An exact power of (1+eps) must round to itself.
	eps := 0.5
	for e := -5; e <= 5; e++ {
		p := Value(e, eps)
		v, ge := UpGeometric(p, eps)
		if ge != e || math.Abs(v-p) > 1e-12 {
			t.Errorf("power %g rounded to %g (exp %d, want %d)", p, v, ge, e)
		}
	}
}

// Property: size <= rounded <= size*(1+eps), and rounding is monotone.
func TestUpGeometricProperty(t *testing.T) {
	prop := func(rawA, rawB float64, rawEps float64) bool {
		a := math.Abs(rawA)
		b := math.Abs(rawB)
		if a < 1e-9 || a > 1e9 || b < 1e-9 || b > 1e9 {
			return true
		}
		eps := 0.05 + math.Mod(math.Abs(rawEps), 0.9)
		va, _ := UpGeometric(a, eps)
		vb, _ := UpGeometric(b, eps)
		if va < a-1e-12 || va > a*(1+eps)*(1+1e-9) {
			return false
		}
		if a <= b && va > vb+1e-12 {
			return false // monotone
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestScaleRoundPreservesStructure(t *testing.T) {
	in := sched.NewInstance(3)
	in.AddJob(3, 0)
	in.AddJob(1.2, 1)
	in.AddJob(0.4, 1)
	out, exps := ScaleRound(in, 3, 0.5)
	if len(out.Jobs) != 3 || out.Machines != 3 || out.NumBags != in.NumBags {
		t.Fatal("structure changed")
	}
	if len(exps) != 3 {
		t.Fatal("exponents missing")
	}
	for i, j := range out.Jobs {
		want := in.Jobs[i].Size / 3
		if j.Size < want-1e-12 || j.Size > want*1.5+1e-9 {
			t.Errorf("job %d: scaled size %g not in [%g, %g]", i, j.Size, want, want*1.5)
		}
		if j.Bag != in.Jobs[i].Bag || j.ID != in.Jobs[i].ID {
			t.Errorf("job %d identity changed", i)
		}
	}
	// Original untouched.
	if in.Jobs[0].Size != 3 {
		t.Error("ScaleRound mutated its input")
	}
}
