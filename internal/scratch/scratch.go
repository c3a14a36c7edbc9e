// Package scratch provides a reusable typed arena for the per-solve
// scratch buffers of the EPTAS pipeline. A binary-search solve runs the
// per-guess pipeline dozens of times on the same instance (guesses,
// ladder rungs, repair retries), and each run used to allocate
// its working arrays — placer load vectors, configuration-DP residual
// buffers — from the heap only to drop them microseconds later. An
// Arena hands out slices from growable slabs and is reset wholesale
// between runs, so steady-state pipeline runs stop allocating.
//
// An Arena is single-goroutine: the engine hands each concurrent
// pipeline run its own arena from a pool. Slices taken from an arena
// are valid until the arena is reset; nothing retained beyond the run
// (plans, schedules, cached results) may live in arena memory.
package scratch

import "repro/internal/numeric"

// slab hands out zeroed subslices of one element type. When the
// current backing array is exhausted a bigger one is allocated; slices
// already handed out keep the old backing alive, so growth never
// invalidates them.
type slab[T any] struct {
	buf []T
	off int
}

func (s *slab[T]) take(n int) []T {
	if s.off+n > len(s.buf) {
		size := 2 * (s.off + n)
		if size < 1024 {
			size = 1024
		}
		s.buf = make([]T, size)
		s.off = 0
	}
	out := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	clear(out)
	return out
}

func (s *slab[T]) reset() { s.off = 0 }

// Arena is a bundle of typed slabs covering the pipeline's scratch
// needs. The zero value is ready to use.
type Arena struct {
	ints  slab[int]
	i16s  slab[int16]
	bools slab[bool]
	fxs   slab[numeric.Fx]
	f64s  slab[float64]
}

// Every getter tolerates a nil receiver by falling back to a plain
// allocation, so optional-arena call sites need no branching.

// Ints returns a zeroed []int of length n from the arena.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.ints.take(n)
}

// Int16s returns a zeroed []int16 of length n from the arena.
func (a *Arena) Int16s(n int) []int16 {
	if a == nil {
		return make([]int16, n)
	}
	return a.i16s.take(n)
}

// Bools returns a zeroed []bool of length n from the arena.
func (a *Arena) Bools(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	return a.bools.take(n)
}

// Fxs returns a zeroed []numeric.Fx of length n from the arena.
func (a *Arena) Fxs(n int) []numeric.Fx {
	if a == nil {
		return make([]numeric.Fx, n)
	}
	return a.fxs.take(n)
}

// Float64s returns a zeroed []float64 of length n from the arena.
func (a *Arena) Float64s(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.f64s.take(n)
}

// Reset makes every slab's memory available again. Slices taken before
// the reset must no longer be used.
func (a *Arena) Reset() {
	a.ints.reset()
	a.i16s.reset()
	a.bools.reset()
	a.fxs.reset()
	a.f64s.reset()
}
