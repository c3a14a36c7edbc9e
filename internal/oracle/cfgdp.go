package oracle

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sort"

	"repro/internal/cfgmilp"
	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/scratch"
)

// CfgDP is the exact configuration dynamic program: it decides the
// decomposed-mode configuration program by searching over pattern
// multiplicities directly, with all bookkeeping in exact integer and
// numeric.Fx fixed-point arithmetic — no LP, no floating point, no
// tolerance anywhere in the decision. It inherits (and trivially
// satisfies) the exactness requirement of the oracle layer: a returned
// plan meets every demand row of the backend-neutral Demand block as a
// bona fide integer inequality.
//
// The search walks the pattern space in index order and chooses a
// multiplicity per pattern, maintaining the residual demand vector
// (priority slot coverage, anonymous X coverage, per-bag avoidance
// counts, and the fixed-point small-job area) with three prunings that
// make it strong exactly when pattern counts are small:
//
//   - dominance: copies of a pattern beyond what its slot coverage can
//     still contribute are never useful — the empty pattern has at least
//     the headroom and avoids every bag — so multiplicities are capped by
//     the residual demands a pattern covers;
//   - suffix bounds: a state whose residual demand exceeds what the
//     remaining patterns could supply on all remaining machines is
//     abandoned immediately;
//   - memoization: residual states proven infeasible are never
//     re-explored (the residual vector fully determines the subproblem).
//
// The first feasible completion in this fixed exploration order is
// returned, so the produced plan is a deterministic function of the
// model. Work is counted in DP states (one state = one search node) and
// bounded by Limits.MaxStates; exceeding the budget returns ErrLimit.
//
// Paper-mode models (with their per-pattern y variable block) and
// related-family models are out of scope: Solve returns ErrUnsupported.
//
// One deliberate divergence from bnb: the aggregate small-job area row
// is decided here on the Tol-folded fixed-point capacity (headroom
// TCapFx - height), while bnb decides the materialized float row
// (headroom T - height) through the LP with its own ~1e-6 feasibility
// tolerances. Inside that tolerance band — where the float LP is fuzzy
// by construction — the two backends may legitimately disagree on a
// borderline guess. Each backend is individually deterministic and each
// accepted plan satisfies its stated constraint system; the
// backend-differential test asserts decision equivalence on the
// committed corpus, not in the tolerance band.
type CfgDP struct{}

// Name returns "cfgdp".
func (CfgDP) Name() string { return "cfgdp" }

// dpPollInterval is how many DP states pass between context polls.
const dpPollInterval = 64

// Solve decides the decomposed configuration program in b exactly.
func (CfgDP) Solve(ctx context.Context, b *cfgmilp.Built, lim Limits) (*cfgmilp.Plan, Stats, error) {
	st := Stats{Backend: "cfgdp"}
	if b.Related != nil {
		// Related-family models have per-speed-class variable blocks the
		// DP's residual-demand state does not represent; like paper-mode
		// models they are bnb's.
		return nil, st, fmt.Errorf("%w (cfgdp solves bag-constrained models only, got a related-family model)", ErrUnsupported)
	}
	if b.Mode != cfgmilp.ModeDecomposed {
		return nil, st, fmt.Errorf("%w (cfgdp solves decomposed-mode models only, got %s)", ErrUnsupported, b.Mode)
	}
	sp := b.Space
	if len(sp.Patterns) == 0 || sp.Patterns[0].NumJobs != 0 {
		return nil, st, fmt.Errorf("%w (pattern space lacks the empty pattern)", ErrUnsupported)
	}
	d := newDPSolver(b, lim.maxStates(), lim.Arena)
	found, err := d.dfs(ctx, 0, d.m, d.slotRes, d.avoidRes, d.area)
	st.States = d.states
	if err != nil {
		return nil, st, err
	}
	if !found {
		return nil, st, fmt.Errorf("%w (configuration DP exhausted %d states)", ErrInfeasible, d.states)
	}
	return &cfgmilp.Plan{Space: sp, XCount: d.xs}, st, nil
}

// dpSolver carries the immutable demand data and the mutable search
// state of one Solve call.
type dpSolver struct {
	sp *pattern.Space
	m  int

	// capFx is the exact pattern-capacity bound (classify.Info.TCapFx);
	// it is also the empty pattern's area headroom.
	capFx numeric.Fx
	// slotDemand concatenates the MLPrio and XTotals demand counts;
	// contrib holds every pattern's per-row contribution (ChiPrio /
	// XMult) as one flat array with stride nSlot — one allocation, cache
	// friendly, and the setup cost stays negligible next to a single
	// branch-and-bound node even on tiny models.
	nSlot      int
	slotDemand []int
	contrib    []int16
	// avoidDemand holds the SmallPrioBags counts; avoids (stride nAvoid)
	// reports whether a pattern avoids the k-th bag (contributes one
	// machine).
	nAvoid      int
	avoidDemand []int
	avoids      []bool
	// headroom[p] is max(0, capFx - height_p), the area a machine of
	// pattern p offers to small jobs.
	headroom []numeric.Fx
	// area is the total small-job area demand.
	area numeric.Fx
	// order is the DFS exploration order over the non-empty patterns:
	// slot-richest first (then enumeration order), so machines that must
	// host many slots are committed early and the aggregate supply bound
	// below prunes hard.
	order []int
	// sufMax (stride nSlot, indexed by order position) is the largest
	// slot-row-k contribution of any pattern at order position >= i (the
	// empty pattern contributes nothing); sufJobs[i] is the largest slot
	// count of any such pattern.
	sufMax  []int16
	sufJobs []int

	maxStates int64
	states    int64

	// xs is the multiplicity vector under construction; on success it is
	// the returned plan.
	xs []int
	// slotBuf/avoidBuf are per-depth scratch residual vectors (strides
	// nSlot/nAvoid), so the recursion allocates nothing per state.
	slotBuf  []int
	avoidBuf []int
	// slotRes/avoidRes are the root residuals (the demands themselves).
	slotRes  []int
	avoidRes []int

	infeasible stateSet
	keyBuf     []byte
}

// newDPSolver builds the solver's demand tables and scratch buffers.
// When arena is non-nil every buffer that dies with the solve comes from
// it; xs stays heap-allocated because a successful Plan retains it, and
// the infeasibility memo grows on the heap from its first insert, which
// easy solves never reach (see memoMinStates).
func newDPSolver(b *cfgmilp.Built, maxStates int64, arena *scratch.Arena) *dpSolver {
	sp := b.Space
	info := b.View.Info
	dem := &b.Demand
	nPat := len(sp.Patterns)
	nSlot := len(dem.MLPrio) + len(dem.XTotals)
	nAvoid := len(dem.SmallPrioBags)

	d := &dpSolver{
		sp:          sp,
		m:           dem.Machines,
		capFx:       info.TCapFx,
		nSlot:       nSlot,
		slotDemand:  arena.Ints(nSlot),
		nAvoid:      nAvoid,
		avoidDemand: arena.Ints(nAvoid),
		contrib:     arena.Int16s(nPat * nSlot),
		avoids:      arena.Bools(nPat * nAvoid),
		headroom:    arena.Fxs(nPat),
		area:        dem.SmallAreaFx,
		maxStates:   maxStates,
		xs:          make([]int, nPat),
	}
	for k, row := range dem.MLPrio {
		d.slotDemand[k] = row.Count
	}
	for k, row := range dem.XTotals {
		d.slotDemand[len(dem.MLPrio)+k] = row.Count
	}
	for k, row := range dem.SmallPrioBags {
		d.avoidDemand[k] = row.Count
	}
	for p := range sp.Patterns {
		pat := &sp.Patterns[p]
		row := d.contrib[p*nSlot : (p+1)*nSlot]
		for k, dr := range dem.MLPrio {
			row[k] = int16(pat.ChiPrio(dr.Bag, dr.SizeIdx))
		}
		for k, dr := range dem.XTotals {
			row[len(dem.MLPrio)+k] = int16(sp.XMult(pat, dr.SizeIdx))
		}
		av := d.avoids[p*nAvoid : (p+1)*nAvoid]
		for k, dr := range dem.SmallPrioBags {
			av[k] = !pat.ChiBag(dr.Bag)
		}
		if h := d.capFx - pat.HeightFx; h > 0 {
			d.headroom[p] = h
		}
	}
	// Exploration order: slot-richest patterns first, ties by
	// enumeration index — deterministic, and part of the backend's
	// contract (it decides which feasible plan is "first").
	d.order = arena.Ints(nPat - 1)
	for p := 1; p < nPat; p++ {
		d.order[p-1] = p
	}
	sort.SliceStable(d.order, func(a, b int) bool {
		na, nb := sp.Patterns[d.order[a]].NumJobs, sp.Patterns[d.order[b]].NumJobs
		if na != nb {
			return na > nb
		}
		return d.order[a] < d.order[b]
	})
	// Suffix maxima over order positions >= i, for the supply-bound
	// prunings.
	depth := len(d.order)
	d.sufMax = arena.Int16s((depth + 1) * nSlot)
	d.sufJobs = arena.Ints(depth + 1)
	for i := depth - 1; i >= 0; i-- {
		row := d.sufMax[i*nSlot : (i+1)*nSlot]
		copy(row, d.sufMax[(i+1)*nSlot:(i+2)*nSlot])
		for k, c := range d.contrib[d.order[i]*nSlot : d.order[i]*nSlot+nSlot] {
			if c > row[k] {
				row[k] = c
			}
		}
		d.sufJobs[i] = sp.Patterns[d.order[i]].NumJobs // sorted: suffix max
	}
	// Per-depth scratch residuals.
	d.slotBuf = arena.Ints((depth + 1) * nSlot)
	d.avoidBuf = arena.Ints((depth + 1) * nAvoid)
	d.slotRes = arena.Ints(nSlot)
	copy(d.slotRes, d.slotDemand)
	d.avoidRes = arena.Ints(nAvoid)
	copy(d.avoidRes, d.avoidDemand)
	return d
}

// dfs explores multiplicities for the patterns at order positions
// i..end given `left` unassigned machines and the (clamped) residual
// demands. It returns whether a feasible completion exists; on true,
// d.xs holds it (d.xs[0] is the empty-pattern count).
func (d *dpSolver) dfs(ctx context.Context, i, left int, slots, avoid []int, area numeric.Fx) (bool, error) {
	d.states++
	if d.states > d.maxStates {
		return false, fmt.Errorf("%w (configuration DP exceeded %d states)", ErrLimit, d.maxStates)
	}
	if d.states%dpPollInterval == 0 {
		if err := ctx.Err(); err != nil {
			return false, err
		}
	}

	if i == len(d.order) {
		// Leaf: the remaining machines run the empty pattern, which
		// supplies no slots, avoids every bag, and offers full headroom.
		for _, r := range slots {
			if r > 0 {
				return false, nil
			}
		}
		for _, r := range avoid {
			if r > left {
				return false, nil
			}
		}
		if area > d.capFx.MulInt(left) {
			return false, nil
		}
		d.xs[0] = left
		return true, nil
	}

	// Supply bounds: can the remaining patterns on the remaining machines
	// still meet the residuals? (The empty pattern keeps avoidance and
	// area suppliable whenever the counts fit.)
	totalRes := 0
	suf := d.sufMax[i*d.nSlot : (i+1)*d.nSlot]
	for k, r := range slots {
		if r > left*int(suf[k]) {
			return false, nil
		}
		totalRes += r
	}
	if totalRes > left*d.sufJobs[i] {
		return false, nil
	}
	for _, r := range avoid {
		if r > left {
			return false, nil
		}
	}
	if area > d.capFx.MulInt(left) {
		return false, nil
	}
	if d.infeasible.len() > 0 && d.infeasible.has(d.stateKey(i, left, slots, avoid, area)) {
		return false, nil
	}

	// Dominance cap: copies of this pattern beyond the residual slot
	// demand it can still serve are never better than empty machines.
	p := d.order[i]
	row := d.contrib[p*d.nSlot : (p+1)*d.nSlot]
	av := d.avoids[p*d.nAvoid : (p+1)*d.nAvoid]
	maxC := 0
	for k, c := range row {
		if c > 0 && slots[k] > 0 {
			if need := (slots[k] + int(c) - 1) / int(c); need > maxC {
				maxC = need
			}
		}
	}
	if maxC > left {
		maxC = left
	}

	childSlots := d.slotBuf[i*d.nSlot : (i+1)*d.nSlot]
	childAvoid := d.avoidBuf[i*d.nAvoid : (i+1)*d.nAvoid]
	for c := maxC; c >= 0; c-- {
		d.xs[p] = c
		for k, r := range slots {
			if r -= c * int(row[k]); r > 0 {
				childSlots[k] = r
			} else {
				childSlots[k] = 0
			}
		}
		for k, r := range avoid {
			if av[k] {
				r -= c
			}
			if r > 0 {
				childAvoid[k] = r
			} else {
				childAvoid[k] = 0
			}
		}
		childArea := area - d.headroom[p].MulInt(c)
		if childArea < 0 {
			childArea = 0
		}
		found, err := d.dfs(ctx, i+1, left-c, childSlots, childAvoid, childArea)
		if err != nil {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	d.xs[p] = 0
	// Memoize the proven-infeasible state — but only once the search is
	// demonstrably non-trivial: easy models finish in a few hundred
	// states and should not pay for a memo that will never be read. The
	// gate is a deterministic state count, so the explored tree (and the
	// found plan) is unchanged either way. The key is re-serialized here:
	// the recursion above reused the shared key buffer, and (i, left,
	// slots, avoid, area) are unchanged by the loop.
	if d.states > memoMinStates {
		d.infeasible.add(d.stateKey(i, left, slots, avoid, area))
	}
	return false, nil
}

// memoMinStates is the state count below which infeasible states are not
// memoized; see dfs.
const memoMinStates = 256

// stateKey serializes a residual state for the infeasibility memo into
// the solver's reusable buffer. The clamped residual vector (plus
// pattern index and machines left) fully determines the subproblem, so
// equal keys mean equal outcomes; every state of one solve has the same
// number of fields, so the varint encoding is injective and the memo can
// compare keys byte for byte.
func (d *dpSolver) stateKey(i, left int, slots, avoid []int, area numeric.Fx) []byte {
	buf := binary.AppendUvarint(d.keyBuf[:0], uint64(i))
	buf = binary.AppendUvarint(buf, uint64(left))
	for _, r := range slots {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	for _, r := range avoid {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	buf = binary.AppendUvarint(buf, uint64(area))
	d.keyBuf = buf
	return buf
}

// statesPerNode is how many DP states the state budget grants per bnb
// node of the node budget.
const statesPerNode = 256

// maxStates resolves the DP state budget: an explicit MaxStates wins;
// otherwise the budget mirrors the bnb node budget at statesPerNode (so
// the priority-cap ladder's short rungs shorten the DP exactly as they
// shorten branch-and-bound), falling back to DefaultMaxStates.
func (l Limits) maxStates() int64 {
	if l.MaxStates > 0 {
		return l.MaxStates
	}
	if l.MILP.MaxNodes > 0 {
		return int64(l.MILP.MaxNodes) * statesPerNode
	}
	return DefaultMaxStates
}

// stateSet is the DP's infeasible-state memo: a set of exact byte keys
// kept in one flat slab, indexed by an open-addressing hash table of
// entry numbers. An insert appends the key's bytes to the slab (no
// per-key allocation, and nothing for the garbage collector to scan),
// and a lookup compares candidate keys byte for byte, so membership is
// exact whatever the hash does.
type stateSet struct {
	slab []byte
	// ends[e] is the slab offset one past entry e's key; entry e starts
	// at ends[e-1] (0 for the first).
	ends []uint32
	// table holds entry numbers plus one (0 marks a free slot); its
	// length is a power of two, kept at least twice the entry count.
	table []uint32
}

// stateSeed seeds the memo's hash. The seed changes probe order between
// processes, never membership, so answers do not depend on it.
var stateSeed = maphash.MakeSeed()

func (s *stateSet) len() int { return len(s.ends) }

// key returns entry e's bytes.
func (s *stateSet) key(e int) []byte {
	start := uint32(0)
	if e > 0 {
		start = s.ends[e-1]
	}
	return s.slab[start:s.ends[e]]
}

// slot returns the table index holding key, or the free index where it
// belongs.
func (s *stateSet) slot(key []byte) int {
	mask := len(s.table) - 1
	i := int(maphash.Bytes(stateSeed, key)) & mask
	for s.table[i] != 0 && !bytes.Equal(s.key(int(s.table[i]-1)), key) {
		i = (i + 1) & mask
	}
	return i
}

// has reports whether key is in the set.
func (s *stateSet) has(key []byte) bool {
	return len(s.table) > 0 && s.table[s.slot(key)] != 0
}

// add inserts key, which the caller has checked is absent.
func (s *stateSet) add(key []byte) {
	if 2*(len(s.ends)+1) > len(s.table) {
		s.grow()
	}
	s.slab = append(s.slab, key...)
	s.ends = append(s.ends, uint32(len(s.slab)))
	s.table[s.slot(key)] = uint32(len(s.ends))
}

// grow doubles the table (to 64 slots at first) and reinserts every
// entry.
func (s *stateSet) grow() {
	s.table = make([]uint32, max(64, 2*len(s.table)))
	for e := range s.ends {
		s.table[s.slot(s.key(e))] = uint32(e + 1)
	}
}
