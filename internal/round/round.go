// Package round implements the standard scaling and rounding machinery of
// the EPTAS (Section 2 of the paper): scaling an instance by a makespan
// guess, geometric rounding of job sizes to powers of (1+eps), and the
// dual-approximation search over a grid of makespan guesses (grid.go).
package round

import (
	"math"

	"repro/internal/numeric"
	"repro/internal/sched"
)

// Exponent returns the smallest integer e with (1+eps)^e >= size.
// size must be positive.
func Exponent(size, eps float64) int {
	e := math.Log(size) / math.Log1p(eps)
	// Guard against size being an exact power: nudge before the ceil so
	// representable powers map to themselves.
	return int(math.Ceil(e - 1e-9))
}

// Value returns (1+eps)^e.
func Value(e int, eps float64) float64 {
	return math.Pow(1+eps, float64(e))
}

// UpGeometric rounds size up to the next power of (1+eps) and returns the
// rounded value together with its exponent.
func UpGeometric(size, eps float64) (float64, int) {
	e := Exponent(size, eps)
	v := Value(e, eps)
	if v < size { // floating point slack
		e++
		v = Value(e, eps)
	}
	return v, e
}

// ScaleRound returns a copy of in with every job size divided by target,
// rounded up to a power of (1+eps), and snapped up onto the fixed-point
// grid of numeric.Fx. Job IDs, bags, order and machine count are
// preserved, so a schedule of the result is a schedule of in. The second
// result holds the geometric exponent of each job.
//
// The grid snap is where float64 ends in the EPTAS pipeline: every size
// of the returned instance is an exact fixed-point grid value, so all downstream
// sums and comparisons of sizes — whether performed on int64 fixed-point
// values or on the lifted float64s — are exact and agree bit for bit
// (see the numeric package's denominator contract). Snapping up keeps
// the round-up invariant: the stored size is never below Size/target.
func ScaleRound(in *sched.Instance, target, eps float64) (*sched.Instance, []int) {
	out := in.Clone()
	exps := make([]int, len(out.Jobs))
	for i := range out.Jobs {
		v, e := UpGeometric(out.Jobs[i].Size/target, eps)
		out.Jobs[i].Size = numeric.Quantize(v)
		exps[i] = e
	}
	return out, exps
}

// SearchResult reports the outcome of the guess search.
type SearchResult struct {
	// Schedule is the schedule of the smallest accepted guess, or nil if
	// no guess was accepted.
	Schedule *sched.Schedule
	// Makespan is the true makespan of Schedule.
	Makespan float64
	// Guesses is the number of decision invocations.
	Guesses int
	// FinalGuess is the smallest accepted guess value.
	FinalGuess float64
}

func newSearchResult() SearchResult {
	return SearchResult{Makespan: math.Inf(1)}
}
