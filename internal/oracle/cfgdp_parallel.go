// Speculative parallelism for the configuration DP.
//
// The DP explores root-pattern multiplicities c = maxC..0 in a fixed
// order; each sibling subtree (c fixed, depth >= 1) is a deterministic
// function of its residual state and of the infeasibility memo contents
// at the time it runs. Helper lanes therefore evaluate upcoming sibling
// subtrees speculatively while the main lane walks the exact sequential
// order. A speculative run is adoptable only when it is provably
// identical to what the inline recursion would have computed:
//
//   - the worker aborts on ANY memo hit (shared map or its own written
//     states), so its trajectory used no memo entries at all — and a
//     trajectory the sequential solve would have pruned differently can
//     only arise from an entry the worker visited-and-missed;
//   - the worker records a hashed read-set of every visited state, and
//     the main lane keeps an append-only log of the hashes of every key
//     it inserts; at adoption the subtree is valid iff no key written
//     since the task's snapshot is in the worker's read-set (hash
//     collisions only over-invalidate, never under-invalidate);
//   - on adoption the main lane replays the subtree's observable
//     effects exactly: the state counter advances by the worker's
//     count, the every-64-states context poll and race-clock tick fire
//     at the same absolute counts, the state budget errors at the same
//     state, and the worker's would-be memo writes are applied with the
//     real memoMinStates gate evaluated at their true absolute counts.
//
// The found plan, the state count, every race-clock tick and the error
// surface are thus bit-identical to the sequential solve for any worker
// count; only wall-clock time and the utilization telemetry change.
package oracle

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/numeric"
)

// Speculative task outcomes.
const (
	specExhausted = iota // subtree fully explored, no feasible completion
	specFound            // feasible completion found; xs holds it
	specLimited          // relative state count hit the solve's budget
	specAborted          // memo hit / shutdown / overtaken: not adoptable
)

// dpWrite is one would-be memo insert recorded by a worker: the key and
// the worker-relative state count at which the sequential solve would
// have performed it.
type dpWrite struct {
	rel int64
	key string
}

// dpSpec is one speculative sibling-subtree evaluation. The fields
// above done are written by the worker before the done store (release)
// and read by the main lane after observing done (acquire).
type dpSpec struct {
	c      int
	gen    int // len(writeLog) snapshot at task start
	status int
	rel    int64
	xs     []int
	writes []dpWrite
	reads  map[uint64]struct{}
	done   atomic.Bool
}

// dpCoord coordinates the helper lanes of one parallel cfgdp solve.
type dpCoord struct {
	ctx context.Context
	d   *dpSolver

	mu      sync.Mutex
	cond    *sync.Cond
	pending []int // unclaimed sibling multiplicities, descending
	tasks   map[int]*dpSpec
	steals  int64

	stopped atomic.Bool
	mainCur atomic.Int64 // sibling the main lane is processing
	wg      sync.WaitGroup
}

// dpKeyHash is FNV-1a over a state key; used for worker read-sets and
// the main lane's write log.
func dpKeyHash[T string | []byte](key T) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// dfsRoot runs the DP with the given lane count. workers <= 1 (or a
// model with no non-empty patterns) is the plain sequential recursion.
func (d *dpSolver) dfsRoot(ctx context.Context, workers int) (bool, error) {
	if workers <= 1 || len(d.order) == 0 {
		return d.dfs(ctx, 0, d.m, d.slotRes, d.avoidRes, d.area)
	}

	// Mirror of the dfs(0, ...) root bookkeeping: state count, budget,
	// poll/tick, supply bounds, memo (empty here), dominance cap.
	slots, avoid, area, left := d.slotRes, d.avoidRes, d.area, d.m
	d.states++
	if d.states > d.maxStates {
		return false, errDPLimit(d.maxStates)
	}
	if d.states%dpTickInterval == 0 {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if d.tick != nil {
			if err := d.tick(d.states * dpStateCost); err != nil {
				return false, err
			}
		}
	}
	totalRes := 0
	suf := d.sufMax[:d.nSlot]
	for k, r := range slots {
		if r > left*int(suf[k]) {
			return false, nil
		}
		totalRes += r
	}
	if totalRes > left*d.sufJobs[0] {
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
	p := d.order[0]
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

	// Publish the sibling subtrees and spawn the helper lanes. The
	// memo lock goes live here: from now on every main-lane insert is
	// logged and every worker read is guarded.
	d.memoMu = new(sync.RWMutex)
	co := &dpCoord{ctx: ctx, d: d, tasks: make(map[int]*dpSpec, maxC+1)}
	co.cond = sync.NewCond(&co.mu)
	co.mainCur.Store(int64(maxC) + 1)
	co.pending = make([]int, 0, maxC+1)
	for c := maxC; c >= 0; c-- {
		co.pending = append(co.pending, c)
	}
	helpers := workers - 1
	if helpers > maxC+1 {
		helpers = maxC + 1
	}
	co.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go co.runWorker()
	}
	defer co.shutdown()

	childSlots := d.slotBuf[:d.nSlot]
	childAvoid := d.avoidBuf[:d.nAvoid]
	for c := maxC; c >= 0; c-- {
		co.mainCur.Store(int64(c))
		sp := co.takeForMain(c)
		if sp != nil && sp.done.Load() {
			if ok, found, err := d.adopt(ctx, c, sp); ok {
				if err != nil {
					return false, err
				}
				if found {
					return true, nil
				}
				continue
			}
		}
		// No adoptable speculation: run the exact inline loop body.
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
		found, err := d.dfs(ctx, 1, left-c, childSlots, childAvoid, childArea)
		if err != nil {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	d.xs[p] = 0
	if d.states > memoMinStates {
		d.memoInsert(string(d.stateKey(0, left, slots, avoid, area)))
	}
	return false, nil
}

// adopt applies a completed speculative subtree to the main lane's
// state if it is provably identical to the inline computation. ok
// reports whether the result was adopted; if not, the caller must run
// the subtree inline.
func (d *dpSolver) adopt(ctx context.Context, c int, sp *dpSpec) (ok, found bool, err error) {
	if sp.status == specAborted {
		return false, false, nil
	}
	// Invalid if the main lane memoized any state this subtree visited
	// (the sequential recursion would have pruned there). writeLog is
	// appended only by this goroutine, so the slice read is safe.
	for _, h := range d.writeLog[sp.gen:] {
		if _, hit := sp.reads[h]; hit {
			return false, false, nil
		}
	}
	d.specUsed++
	base := d.states
	if sp.status == specLimited {
		// The worker explored maxStates subtree states without
		// finishing, so the sequential solve exhausts its budget inside
		// this subtree (base >= 1) — replay ticks up to the budget and
		// surface the identical error.
		return true, false, d.replayAdvance(ctx, d.maxStates)
	}
	if err := d.replayAdvance(ctx, sp.rel); err != nil {
		return true, false, err
	}
	for _, w := range sp.writes {
		if base+w.rel > memoMinStates {
			d.memoInsert(w.key)
		}
	}
	if sp.status == specFound {
		copy(d.xs, sp.xs)
		d.xs[d.order[0]] = c
		return true, true, nil
	}
	return true, false, nil
}

// replayAdvance advances the state counter by rel adopted states,
// replaying the budget check and the every-dpTickInterval context poll
// and race-clock tick at the same absolute counts the inline recursion
// would have produced.
func (d *dpSolver) replayAdvance(ctx context.Context, rel int64) error {
	target := d.states + rel
	limit := target
	if limit > d.maxStates {
		limit = d.maxStates
	}
	s := d.states - d.states%dpTickInterval + dpTickInterval
	for ; s <= limit; s += dpTickInterval {
		d.states = s
		if err := ctx.Err(); err != nil {
			return err
		}
		if d.tick != nil {
			if err := d.tick(s * dpStateCost); err != nil {
				return err
			}
		}
	}
	if target > d.maxStates {
		d.states = d.maxStates + 1
		return errDPLimit(d.maxStates)
	}
	d.states = target
	return nil
}

// takeForMain claims sibling c for the main lane. A nil return means no
// worker started it (it was still pending) and the main lane must run
// it inline; otherwise the returned task may still be in flight.
func (co *dpCoord) takeForMain(c int) *dpSpec {
	co.mu.Lock()
	defer co.mu.Unlock()
	if len(co.pending) > 0 && co.pending[0] == c {
		co.pending = co.pending[1:]
		return nil
	}
	return co.tasks[c]
}

func (co *dpCoord) shutdown() {
	co.stopped.Store(true)
	co.mu.Lock()
	co.cond.Broadcast()
	co.mu.Unlock()
	co.wg.Wait()
	co.d.steals = co.steals
}

// runWorker is one helper lane: claim the front-most unclaimed sibling
// (the one the main lane will need soonest), evaluate its subtree
// speculatively, publish, repeat.
func (co *dpCoord) runWorker() {
	defer co.wg.Done()
	d := co.d
	depth := len(d.order)
	w := &dpWorker{
		d:        d,
		co:       co,
		slotBuf:  make([]int, (depth+1)*d.nSlot),
		avoidBuf: make([]int, (depth+1)*d.nAvoid),
		xs:       make([]int, len(d.xs)),
	}
	for {
		co.mu.Lock()
		for len(co.pending) == 0 && !co.stopped.Load() {
			co.cond.Wait()
		}
		if co.stopped.Load() {
			co.mu.Unlock()
			return
		}
		c := co.pending[0]
		co.pending = co.pending[1:]
		sp := &dpSpec{c: c}
		co.tasks[c] = sp
		co.steals++
		co.mu.Unlock()
		w.run(sp)
	}
}

// dpWorker is the per-lane reusable evaluation state. Buffers mirror
// the solver's per-depth scratch; read-set, writes and (on a find) xs
// are handed off to the task, so those are allocated per run.
type dpWorker struct {
	d        *dpSolver
	co       *dpCoord
	slotBuf  []int
	avoidBuf []int
	xs       []int
	keyBuf   []byte
	curC     int
	rel      int64
	status   int

	reads   map[uint64]struct{}
	overlay map[uint64]struct{}
	writes  []dpWrite
}

// run evaluates the sibling subtree for sp.c from the root residuals.
func (w *dpWorker) run(sp *dpSpec) {
	d := w.d
	d.memoMu.RLock()
	sp.gen = len(d.writeLog)
	d.memoMu.RUnlock()

	w.curC = sp.c
	w.rel = 0
	w.status = specExhausted
	w.reads = make(map[uint64]struct{})
	w.overlay = make(map[uint64]struct{})
	w.writes = nil

	// Child residuals of the root for multiplicity c, computed exactly
	// as the root loop does.
	p := d.order[0]
	c := sp.c
	row := d.contrib[p*d.nSlot : (p+1)*d.nSlot]
	av := d.avoids[p*d.nAvoid : (p+1)*d.nAvoid]
	childSlots := w.slotBuf[:d.nSlot]
	childAvoid := w.avoidBuf[:d.nAvoid]
	for k, r := range d.slotRes {
		if r -= c * int(row[k]); r > 0 {
			childSlots[k] = r
		} else {
			childSlots[k] = 0
		}
	}
	for k, r := range d.avoidRes {
		if av[k] {
			r -= c
		}
		if r > 0 {
			childAvoid[k] = r
		} else {
			childAvoid[k] = 0
		}
	}
	childArea := d.area - d.headroom[p].MulInt(c)
	if childArea < 0 {
		childArea = 0
	}

	found, ok := w.dfs(1, d.m-c, childSlots, childAvoid, childArea)
	if ok && found {
		w.status = specFound
		sp.xs = append([]int(nil), w.xs...)
	}
	sp.status = w.status
	sp.rel = w.rel
	sp.reads = w.reads
	sp.writes = w.writes
	sp.done.Store(true)
}

// dfs mirrors dpSolver.dfs over worker-private state. The second return
// is false when the evaluation stopped early (budget, abort); w.status
// says why.
func (w *dpWorker) dfs(i, left int, slots, avoid []int, area numeric.Fx) (bool, bool) {
	d := w.d
	w.rel++
	if w.rel > d.maxStates {
		w.status = specLimited
		return false, false
	}
	if w.rel%dpTickInterval == 0 {
		if w.co.stopped.Load() || w.co.ctx.Err() != nil || w.co.mainCur.Load() <= int64(w.curC) {
			w.status = specAborted
			return false, false
		}
	}

	if i == len(d.order) {
		for _, r := range slots {
			if r > 0 {
				return false, true
			}
		}
		for _, r := range avoid {
			if r > left {
				return false, true
			}
		}
		if area > d.capFx.MulInt(left) {
			return false, true
		}
		w.xs[0] = left
		return true, true
	}

	totalRes := 0
	suf := d.sufMax[i*d.nSlot : (i+1)*d.nSlot]
	for k, r := range slots {
		if r > left*int(suf[k]) {
			return false, true
		}
		totalRes += r
	}
	if totalRes > left*d.sufJobs[i] {
		return false, true
	}
	for _, r := range avoid {
		if r > left {
			return false, true
		}
	}
	if area > d.capFx.MulInt(left) {
		return false, true
	}
	w.keyBuf = appendStateKey(w.keyBuf[:0], i, left, slots, avoid, area)
	d.memoMu.RLock()
	_, dead := d.infeasible[string(w.keyBuf)]
	d.memoMu.RUnlock()
	h := dpKeyHash(w.keyBuf)
	if dead {
		// A memo hit would prune here, but whether the sequential
		// recursion sees this entry depends on timing — abandon the
		// speculation rather than risk divergence.
		w.status = specAborted
		return false, false
	}
	if _, own := w.overlay[h]; own {
		// Same for a state this subtree itself proved infeasible: the
		// inline run may or may not have memoized it (the gate depends
		// on the absolute state count).
		w.status = specAborted
		return false, false
	}
	w.reads[h] = struct{}{}

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

	childSlots := w.slotBuf[i*d.nSlot : (i+1)*d.nSlot]
	childAvoid := w.avoidBuf[i*d.nAvoid : (i+1)*d.nAvoid]
	for c := maxC; c >= 0; c-- {
		w.xs[p] = c
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
		found, ok := w.dfs(i+1, left-c, childSlots, childAvoid, childArea)
		if !ok {
			return false, false
		}
		if found {
			return true, true
		}
	}
	w.xs[p] = 0
	// Record the would-be memo insert; the adoption replay applies it
	// with the real memoMinStates gate at the true absolute count.
	w.keyBuf = appendStateKey(w.keyBuf[:0], i, left, slots, avoid, area)
	key := string(w.keyBuf)
	w.writes = append(w.writes, dpWrite{rel: w.rel, key: key})
	w.overlay[dpKeyHash(key)] = struct{}{}
	return false, true
}
