// Package numeric is the numeric core shared by all bagsched packages:
// the float64 tolerance policy for the pre-rounding world, and the exact
// fixed-point representation (Fx, see fixed.go) the post-rounding
// pipeline runs on.
//
// Original job sizes, LP interiors and lower bounds are float64; all
// tolerance-based comparisons between such derived quantities go through
// this package so the policy lives in exactly one place. From the Scale
// stage of the EPTAS pipeline onward, sizes are snapped onto the Fx grid
// (round.ScaleRound) and heights, loads and capacities are exact int64
// fixed-point values — comparisons there need no tolerances at all; the
// float64 tolerance band is folded into integer capacity constants once,
// via Cap.
package numeric

import "math"

// Tol is the default absolute tolerance used when comparing derived
// floating-point quantities (loads, LP activities, rounded sizes).
const Tol = 1e-9

// Eq reports whether a and b are equal within Tol.
func Eq(a, b float64) bool { return math.Abs(a-b) <= Tol }

// RoundInt returns the nearest integer to x as an int.
func RoundInt(x float64) int { return int(math.Round(x)) }

// Sum returns the sum of xs using Kahan compensated summation, which keeps
// load accounting stable when many small job sizes are accumulated.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Kahan is an incremental compensated accumulator. The zero value is ready
// to use.
type Kahan struct {
	sum  float64
	comp float64
}

// Add accumulates x.
func (k *Kahan) Add(x float64) {
	y := x - k.comp
	t := k.sum + y
	k.comp = (t - k.sum) - y
	k.sum = t
}

// Value returns the current sum.
func (k *Kahan) Value() float64 { return k.sum }

// MaxFloat returns the maximum of xs, or 0 for an empty slice.
func MaxFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
