// Speculative parallelism for the branch-and-bound search.
//
// The configuration MILPs solved by the oracle have a zero objective, so
// every open node shares the same LP bound and the (lpObj, depth) heap
// order makes the search a depth-first dive with sibling backtracking.
// That shape admits a parallel scheme that is bit-identical to the
// sequential search: the main loop still pops, prunes, expands and
// branches in the exact sequential order, while helper goroutines
// speculatively solve the LP relaxations of open frontier nodes — the
// unexplored siblings the dive will backtrack into. An LP relaxation is
// a pure function of the node's bounds chain (the simplex solver is
// deterministic and its Progress hook is observational), so when the
// main loop reaches a node whose relaxation a helper already solved it
// adopts the result and replays the per-pivot Progress sequence the
// inline solve would have produced. Node order, pivot counts, the
// incumbent, and every Progress tick are therefore independent of the
// worker count and of scheduling; only wall-clock time changes.
package milp

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/lp"
)

// errSpecStale is returned by a helper's poll hook when the speculator
// shuts down mid-solve; results carrying it are never observed by the
// main loop (shutdown happens only after the search has returned).
var errSpecStale = errors.New("milp: speculative solve aborted")

// specTask is one speculative LP relaxation. A nil res/err pair under a
// still-open done channel means a helper is working on it.
type specTask struct {
	done chan struct{}
	res  lp.Result
	err  error
}

// mainClaimed marks a bounds chain the main loop solved (or is solving)
// inline, so helpers never duplicate it.
var mainClaimed = &specTask{}

// specItem is a frontier candidate published by the main loop. The
// bounds slice is a private copy: heap nodes are recycled after
// branching, so helpers must not alias them.
type specItem struct {
	key    string
	bounds []lp.Bound
}

// speculator coordinates the helper goroutines. The main loop publishes
// frontier candidates with refresh, consumes results with take, and
// tears the helpers down with stop before Solve returns.
type speculator struct {
	prob     *lp.Problem
	maxIters int
	maxCand  int

	mu       sync.Mutex
	cond     *sync.Cond
	frontier []specItem
	tasks    map[string]*specTask
	stopped  bool
	steals   int

	halt atomic.Bool
	wg   sync.WaitGroup

	used   int    // helper results adopted by the main loop (main-only)
	keyBuf []byte // scratch for take (main-only)
}

func newSpeculator(prob *lp.Problem, helpers, lpMaxIters int) *speculator {
	s := &speculator{
		prob:     prob,
		maxIters: lpMaxIters,
		maxCand:  4 * helpers,
		tasks:    make(map[string]*specTask),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go s.run()
	}
	return s
}

// appendBoundsKey serializes a bounds chain. Chains are root-to-node
// paths in the branching tree, so distinct nodes have distinct keys.
func appendBoundsKey(buf []byte, bounds []lp.Bound) []byte {
	for _, bc := range bounds {
		buf = binary.AppendUvarint(buf, uint64(bc.Var))
		if bc.Upper {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, math.Float64bits(bc.Val))
	}
	return buf
}

// refresh publishes the best open nodes as speculation candidates.
// Called by the main loop after each branching step, while the heap's
// nodes are live. The heap array's prefix approximates best-first
// order, which is all the helpers need — any subset of open nodes is a
// valid speculation target.
func (s *speculator) refresh(q *nodeQueue) {
	n := len(q.items)
	if n > s.maxCand {
		n = s.maxCand
	}
	items := make([]specItem, 0, n)
	buf := s.keyBuf
	s.mu.Lock()
	for i := 0; i < n; i++ {
		nd := q.items[i]
		buf = appendBoundsKey(buf[:0], nd.bounds)
		if _, seen := s.tasks[string(buf)]; seen {
			continue
		}
		bounds := make([]lp.Bound, len(nd.bounds))
		copy(bounds, nd.bounds)
		items = append(items, specItem{key: string(buf), bounds: bounds})
	}
	s.frontier = items
	s.cond.Broadcast()
	s.mu.Unlock()
	s.keyBuf = buf
}

// take hands the main loop the speculative task for a node, or nil when
// none exists — in which case the node is marked main-claimed and must
// be solved inline.
func (s *speculator) take(bounds []lp.Bound) *specTask {
	s.keyBuf = appendBoundsKey(s.keyBuf[:0], bounds)
	s.mu.Lock()
	t := s.tasks[string(s.keyBuf)]
	if t == nil {
		s.tasks[string(s.keyBuf)] = mainClaimed
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if t == mainClaimed {
		return nil
	}
	s.used++
	return t
}

// run is one helper goroutine: claim an unclaimed frontier candidate,
// solve its LP relaxation in the lane's own workspace (no Progress hook
// beyond the halt poll — the main loop replays the tick sequence on
// adoption), publish, repeat.
func (s *speculator) run() {
	defer s.wg.Done()
	ws := workspaces.Get().(*lp.Workspace)
	defer workspaces.Put(ws)
	opt := lp.Options{
		MaxIters: s.maxIters,
		Progress: func(int) error {
			if s.halt.Load() {
				return errSpecStale
			}
			return nil
		},
	}
	for {
		s.mu.Lock()
		var it specItem
		for {
			if s.stopped {
				s.mu.Unlock()
				return
			}
			found := false
			for _, cand := range s.frontier {
				if _, claimed := s.tasks[cand.key]; !claimed {
					it = cand
					found = true
					break
				}
			}
			if found {
				break
			}
			s.cond.Wait()
		}
		t := &specTask{done: make(chan struct{})}
		s.tasks[it.key] = t
		s.steals++
		s.mu.Unlock()

		t.res, t.err = s.prob.SolveIn(ws, it.bounds, opt)
		close(t.done)
	}
}

// stop halts in-flight speculative solves and joins the helpers. Called
// (via defer) after the search has produced its result, so an aborted
// helper solve is never adopted.
func (s *speculator) stop() {
	s.halt.Store(true)
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// counts reports how many LP relaxations helpers claimed and how many
// of those the main loop adopted.
func (s *speculator) counts() (steals, used int) {
	s.mu.Lock()
	steals = s.steals
	s.mu.Unlock()
	return steals, s.used
}
