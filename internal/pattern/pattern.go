// Package pattern implements the machine configurations ("patterns") of
// Definition 3 of the paper: multisets of job slots for medium and large
// sizes, with at most one slot per priority bag, arbitrary multiplicities
// of anonymous X-slots for non-priority large jobs, total height at most
// T = 1+2eps+eps^2 and at most q slots overall.
//
// Enumeration runs on the exact fixed-point representation of the
// scaled-rounded instance (see internal/numeric): slot heights are int64
// grid values, the capacity bound T+Tol is folded into one integer
// constant (classify.Info.TCapFx), and the innermost DFS loops perform
// integer adds and compares only. The pre-fixed-point float64 enumeration
// is retained behind Options.Float64Ref as the reference path; the two
// are bit-for-bit result-identical (the differential tests assert it)
// because every enumerated height is an exact grid value in either
// representation.
package pattern

import (
	"context"
	"fmt"
	"math"

	"repro/internal/classify"
	"repro/internal/numeric"
	"repro/internal/sched"
)

// PrioSlot is a slot reserved for one job of a specific priority bag with
// a specific (medium or large) size.
type PrioSlot struct {
	// Bag is the bag id in the transformed instance.
	Bag int
	// SizeIdx indexes classify.Info.Sizes.
	SizeIdx int
}

// Pattern is one valid machine configuration.
type Pattern struct {
	// Prio lists the selected priority slots, sorted by bag id; at most
	// one per bag (Definition 3).
	Prio []PrioSlot
	// XCount[i] is the multiplicity of the i-th X entry type (see
	// Space.XSizes) on this pattern.
	XCount []int
	// HeightFx is the exact total size of all slots on the numeric.Fx
	// grid.
	HeightFx numeric.Fx
	// Height is HeightFx lifted to float64 (exact; consumed by the LP
	// layer, whose interior stays float64).
	Height float64
	// NumJobs is the total number of slots.
	NumJobs int
}

// ChiBag reports whether the pattern holds a slot of the given bag
// (the paper's characteristic function on full bags).
func (p *Pattern) ChiBag(bag int) bool {
	for _, s := range p.Prio {
		if s.Bag == bag {
			return true
		}
	}
	return false
}

// ChiPrio returns the multiplicity (0 or 1) of the (bag, sizeIdx) slot.
func (p *Pattern) ChiPrio(bag, sizeIdx int) int {
	for _, s := range p.Prio {
		if s.Bag == bag && s.SizeIdx == sizeIdx {
			return 1
		}
	}
	return 0
}

// Space is the enumerated pattern space for one transformed instance.
type Space struct {
	// T is the height bound of valid patterns.
	T float64
	// Q is the slot-count bound of valid patterns.
	Q int
	// XSizes lists the size indices available as X entries (large sizes
	// present in non-priority bags), in decreasing size order.
	XSizes []int
	// PrioBags lists the priority bags holding medium or large jobs, in
	// increasing id order.
	PrioBags []int
	// PrioSizes[i] lists the medium/large size indices present in
	// PrioBags[i], in decreasing size order.
	PrioSizes [][]int
	// Patterns is the enumerated set of valid patterns. Patterns[0] is
	// always the empty pattern.
	Patterns []Pattern
	// Sizes is the shared size table (classify.Info.Sizes).
	Sizes []float64
}

// ErrTooManyPatterns reports that enumeration exceeded the limit; callers
// should increase eps or the limit.
type ErrTooManyPatterns struct{ Limit int }

func (e ErrTooManyPatterns) Error() string {
	return fmt.Sprintf("pattern: enumeration exceeded limit of %d patterns (reduce accuracy or raise Options.PatternLimit)", e.Limit)
}

// DefaultLimit is the default pattern-enumeration bound. It is sized so
// that the downstream MILP (whose LP has one column per pattern) stays
// tractable for the dense simplex solver; guesses whose pattern space
// exceeds it are rejected quickly and the driver degrades gracefully.
const DefaultLimit = 4000

// Options tunes enumeration.
type Options struct {
	// Limit bounds the number of enumerated patterns; zero means
	// DefaultLimit.
	Limit int
	// Float64Ref selects the retained float64 reference enumeration (the
	// pre-fixed-point seed path). Results are bit-for-bit identical to
	// the default integer enumeration; the flag exists for differential
	// tests and benchmarks.
	Float64Ref bool
}

// enumState carries the shared DFS inputs of both enumeration paths.
type enumState struct {
	sp    *Space
	info  *classify.Info
	limit int
	xCaps []int
	xs    []int
	cur   Pattern
	err   error
	slots slotArena
	ints  intArena
}

// slotArena and intArena bulk-allocate the per-pattern Prio and XCount
// slices in chunks: emitting a pattern costs amortized zero allocations
// instead of two. Handed-out slices are capped (three-index slicing) and
// chunks are never grown in place, so earlier patterns are never
// clobbered; Pattern slices are read-only downstream.
// arenaChunk doubles the chunk size from 64 entries up to 8192, so tiny
// spaces stay cheap while huge ones amortize to near-zero allocations.
func arenaChunk(prev, need int) int {
	n := prev * 2
	if n < 64 {
		n = 64
	}
	if n > 8192 {
		n = 8192
	}
	if need > n {
		n = need
	}
	return n
}

type slotArena struct {
	buf   []PrioSlot
	chunk int
}

func (a *slotArena) clone(s []PrioSlot) []PrioSlot {
	if len(s) == 0 {
		return nil
	}
	if cap(a.buf)-len(a.buf) < len(s) {
		a.chunk = arenaChunk(a.chunk, len(s))
		a.buf = make([]PrioSlot, 0, a.chunk)
	}
	start := len(a.buf)
	a.buf = append(a.buf, s...)
	return a.buf[start:len(a.buf):len(a.buf)]
}

type intArena struct {
	buf   []int
	chunk int
}

func (a *intArena) clone(s []int) []int {
	if len(s) == 0 {
		return nil
	}
	if cap(a.buf)-len(a.buf) < len(s) {
		a.chunk = arenaChunk(a.chunk, len(s))
		a.buf = make([]int, 0, a.chunk)
	}
	start := len(a.buf)
	a.buf = append(a.buf, s...)
	return a.buf[start:len(a.buf):len(a.buf)]
}

// Enumerate builds the pattern space for the transformed instance in,
// whose numeric view (per-job size indices and classes) is view and
// whose bag priority flags are given by prio (length in.NumBags). The
// context is polled once per emitted pattern; a canceled or expired ctx
// aborts the enumeration and returns ctx.Err(), so a solve past its
// deadline stops burning CPU on large spaces.
func Enumerate(ctx context.Context, in *sched.Instance, view *classify.View, prio []bool, opt Options) (*Space, error) {
	info := view.Info
	limit := opt.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	sp := &Space{T: info.T, Q: info.Q, Sizes: info.Sizes}

	// Per-bag medium/large size counts on the transformed instance,
	// resolved through the exact view (no per-job float searches).
	counts := make([]map[int]int, in.NumBags)
	for b := range counts {
		counts[b] = make(map[int]int)
	}
	for j, job := range in.Jobs {
		if view.Class(j) == classify.Small {
			continue
		}
		counts[job.Bag][view.JobIdx[j]]++
	}

	// X entries: large sizes present in non-priority bags. (Medium jobs
	// of non-priority bags were removed by the transformation.) The
	// available job count caps the slot multiplicity: slots beyond the
	// job supply can never be filled, so enumerating them only inflates
	// the pattern space.
	xAvail := make(map[int]int)
	for b := 0; b < in.NumBags; b++ {
		if prio[b] {
			continue
		}
		for si, c := range counts[b] {
			if info.SizeClass[si] == classify.Large {
				xAvail[si] += c
			} else if info.SizeClass[si] == classify.Medium {
				return nil, fmt.Errorf("pattern: medium job in non-priority bag %d; instance not transformed", b)
			}
		}
	}
	var xCaps []int
	for si := range info.Sizes { // decreasing size order
		if xAvail[si] > 0 {
			sp.XSizes = append(sp.XSizes, si)
			xCaps = append(xCaps, xAvail[si])
		}
	}

	// Priority bags with medium/large jobs.
	for b := 0; b < in.NumBags; b++ {
		if !prio[b] || len(counts[b]) == 0 {
			continue
		}
		var sizes []int
		for si := range info.Sizes {
			if counts[b][si] > 0 {
				sizes = append(sizes, si)
			}
		}
		if len(sizes) > 0 {
			sp.PrioBags = append(sp.PrioBags, b)
			sp.PrioSizes = append(sp.PrioSizes, sizes)
		}
	}

	st := &enumState{
		sp:    sp,
		info:  info,
		limit: limit,
		xCaps: xCaps,
		xs:    make([]int, len(sp.XSizes)),
	}
	if opt.Float64Ref {
		st.enumPrioFloat(ctx, 0, 0, 0)
	} else {
		st.enumPrioFixed(ctx, 0, 0, 0)
	}
	if st.err != nil {
		return nil, st.err
	}
	return sp, nil
}

// emit appends the current pattern. heightFx is exact; the float64
// Height is its lossless lift.
func (st *enumState) emit(ctx context.Context, heightFx numeric.Fx, jobs int) bool {
	if err := ctx.Err(); err != nil {
		st.err = err
		return false
	}
	if len(st.sp.Patterns) >= st.limit {
		st.err = ErrTooManyPatterns{Limit: st.limit}
		return false
	}
	p := Pattern{
		Prio:     st.slots.clone(st.cur.Prio),
		XCount:   st.ints.clone(st.xs),
		HeightFx: heightFx,
		Height:   heightFx.Float(),
		NumJobs:  jobs,
	}
	st.sp.Patterns = append(st.sp.Patterns, p)
	return true
}

// --- exact integer enumeration (default path) ---
//
// The innermost loops do int64 adds, one integer compare against the
// precomputed capacity TCapFx, and one integer division for the X slot
// multiplicity cap. No tolerances: the T+Tol band is already inside
// TCapFx (see numeric.Cap), so the accepted pattern set is exactly the
// float reference's.

func (st *enumState) enumXFixed(ctx context.Context, i int, height numeric.Fx, jobs int) bool {
	if i == len(st.sp.XSizes) {
		return st.emit(ctx, height, jobs)
	}
	size := st.info.SizesFx[st.sp.XSizes[i]]
	maxC := jobsLeft(st.sp.Q, jobs)
	rem := st.info.TCapFx - height
	if rem < 0 {
		// Unreachable from Enumerate (callers never exceed the capacity),
		// but mirror the float reference exactly: a negative remainder
		// yields a negative multiplicity bound there, which emits nothing.
		st.xs[i] = 0
		return true
	}
	if c := int(rem / size); c < maxC {
		maxC = c
	}
	if st.xCaps[i] < maxC {
		maxC = st.xCaps[i]
	}
	for c := 0; c <= maxC; c++ {
		st.xs[i] = c
		if !st.enumXFixed(ctx, i+1, height+size.MulInt(c), jobs+c) {
			return false
		}
	}
	st.xs[i] = 0
	return true
}

func (st *enumState) enumPrioFixed(ctx context.Context, i int, height numeric.Fx, jobs int) bool {
	if i == len(st.sp.PrioBags) {
		return st.enumXFixed(ctx, 0, height, jobs)
	}
	// Option: no slot of this bag.
	if !st.enumPrioFixed(ctx, i+1, height, jobs) {
		return false
	}
	if jobs >= st.sp.Q {
		return true
	}
	for _, si := range st.sp.PrioSizes[i] {
		h := height + st.info.SizesFx[si]
		if h > st.info.TCapFx {
			continue
		}
		st.cur.Prio = append(st.cur.Prio, PrioSlot{Bag: st.sp.PrioBags[i], SizeIdx: si})
		ok := st.enumPrioFixed(ctx, i+1, h, jobs+1)
		st.cur.Prio = st.cur.Prio[:len(st.cur.Prio)-1]
		if !ok {
			return false
		}
	}
	return true
}

// --- retained float64 reference enumeration (seed path) ---
//
// Kept verbatim (modulo the shared emit) for differential testing and as
// the benchmark baseline of the fixed-point refactor. Heights are exact
// grid values here too, so converting the accumulated float64 height to
// Fx at emit time is lossless and the produced Space is bit-identical.

func (st *enumState) enumXFloat(ctx context.Context, i int, height float64, jobs int) bool {
	if i == len(st.sp.XSizes) {
		return st.emit(ctx, numeric.FromFloat(height), jobs)
	}
	size := st.info.Sizes[st.sp.XSizes[i]]
	maxC := jobsLeft(st.sp.Q, jobs)
	if c := int(floorDiv(st.sp.T-height+numeric.Tol, size)); c < maxC {
		maxC = c
	}
	if st.xCaps[i] < maxC {
		maxC = st.xCaps[i]
	}
	for c := 0; c <= maxC; c++ {
		st.xs[i] = c
		if !st.enumXFloat(ctx, i+1, height+float64(c)*size, jobs+c) {
			return false
		}
	}
	st.xs[i] = 0
	return true
}

func (st *enumState) enumPrioFloat(ctx context.Context, i int, height float64, jobs int) bool {
	if i == len(st.sp.PrioBags) {
		return st.enumXFloat(ctx, 0, height, jobs)
	}
	if !st.enumPrioFloat(ctx, i+1, height, jobs) {
		return false
	}
	if jobs >= st.sp.Q {
		return true
	}
	for _, si := range st.sp.PrioSizes[i] {
		h := height + st.info.Sizes[si]
		if h > st.sp.T+numeric.Tol {
			continue
		}
		st.cur.Prio = append(st.cur.Prio, PrioSlot{Bag: st.sp.PrioBags[i], SizeIdx: si})
		ok := st.enumPrioFloat(ctx, i+1, h, jobs+1)
		st.cur.Prio = st.cur.Prio[:len(st.cur.Prio)-1]
		if !ok {
			return false
		}
	}
	return true
}

// XMult returns the multiplicity of X slots of size index si on pattern p.
func (sp *Space) XMult(p *Pattern, si int) int {
	for i, xsi := range sp.XSizes {
		if xsi == si {
			return p.XCount[i]
		}
	}
	return 0
}

func jobsLeft(q, jobs int) int {
	if q > jobs {
		return q - jobs
	}
	return 0
}

// floorDiv is the float reference's slot-multiplicity bound.
func floorDiv(a, b float64) float64 { return math.Floor(a / b) }
