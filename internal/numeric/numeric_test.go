package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEq(t *testing.T) {
	tests := []struct {
		a, b float64
		want bool
	}{
		{1, 1, true},
		{1, 1 + 1e-10, true},
		{1, 1 + 1e-8, false},
		{0, 0, true},
		{-1, 1, false},
		{1e9, 1e9, true},
	}
	for _, tt := range tests {
		if got := Eq(tt.a, tt.b); got != tt.want {
			t.Errorf("Eq(%g,%g) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestSumMatchesNaiveOnSmallInputs(t *testing.T) {
	xs := []float64{1, 2, 3, 4.5}
	if got := Sum(xs); got != 10.5 {
		t.Errorf("Sum = %g, want 10.5", got)
	}
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %g, want 0", got)
	}
}

func TestSumCompensation(t *testing.T) {
	// 1 + 1e-16 repeated: naive summation loses the small terms.
	xs := make([]float64, 1_000_001)
	xs[0] = 1
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-16
	}
	got := Sum(xs)
	want := 1 + 1e-10
	if math.Abs(got-want) > 1e-13 {
		t.Errorf("Sum = %.17g, want %.17g", got, want)
	}
}

func TestKahanMatchesSum(t *testing.T) {
	prop := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		var k Kahan
		for _, x := range clean {
			k.Add(x)
		}
		return math.Abs(k.Value()-Sum(clean)) <= 1e-6*(1+math.Abs(Sum(clean)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinMaxArg(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if MaxFloat(xs) != 5 {
		t.Errorf("MaxFloat = %g", MaxFloat(xs))
	}
	if MaxFloat(nil) != 0 {
		t.Error("empty-slice behaviour wrong")
	}
}

func TestRoundInt(t *testing.T) {
	if RoundInt(2.5) != 3 || RoundInt(2.4) != 2 || RoundInt(-2.5) != -3 {
		t.Error("RoundInt misbehaves")
	}
}
