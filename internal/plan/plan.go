// Package plan closes the serving layer's quality/latency loop: an
// online cost model that learns (family, instance-size bucket, eps,
// backend) → latency from observed solves, and an
// admission-time planner that, given a deadline and a quality floor,
// picks the cheapest configuration predicted to finish in budget —
// walking the degradation ladder from the requested eps through coarser
// eps rungs down to the constant-factor heuristics, and refusing
// (ErrUnattainable) when even the floor cannot be met.
//
// The planner is deterministic given a frozen model: Decide reads only
// the model's cells and the request, never the clock or a random
// source, and reports the model version its decision was keyed by.
// Observing never changes an already-returned result, so running with a
// model attached is bit-identical to running without one whenever
// adaptive mode is off — plan_diff_test.go enforces exactly that.
package plan

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrUnattainable is the planner's hard refusal: no ladder rung meets
// both the quality floor and the deadline. Serving layers map it to a
// 422-style "unattainable" response. Errors returned by Decide wrap it;
// test with errors.Is.
var ErrUnattainable = errors.New("plan: unattainable")

// maxSizeRelax bounds how far Predict walks neighboring size buckets
// when the exact bucket has no observations.
const maxSizeRelax = 6

// headroom scales a budget before comparing predictions against it:
// a rung "fits" when its predicted latency is at most 4/5 of the
// deadline, leaving slack for planner overhead, queueing and variance.
func headroom(budget time.Duration) time.Duration { return budget / 5 * 4 }

// Key identifies one cost-model cell.
type Key struct {
	// Family is the problem-family name ("bags", "identical", "related").
	Family string `json:"family"`
	// Size is the SizeClass bucket of the instance's job count.
	Size int `json:"size"`
	// Rung is the executed rung name (RungEPTAS or a heuristic).
	Rung string `json:"rung"`
	// EpsIdx is the EpsGrid bucket of an eptas rung; -1 for heuristics.
	EpsIdx int `json:"eps_idx"`
	// Backend names the oracle policy of an eptas rung: "default" for
	// the default policy, "bnb" or "cfgdp" for a pinned backend; "" for
	// heuristics.
	Backend string `json:"backend"`
}

// cell is one learned latency estimate: an exponentially weighted
// moving average in microseconds plus the observation count.
type cell struct {
	meanUS float64
	count  uint64
}

// ewmaAlpha is the weight of a new observation; 1/4 adapts within a few
// requests without letting one outlier dominate.
const ewmaAlpha = 0.25

// Model is the online cost model. The zero value is not usable; call
// NewModel. All methods are safe for concurrent use.
type Model struct {
	mu           sync.RWMutex
	cells        map[Key]*cell
	version      uint64
	observations uint64
}

// NewModel returns an empty cost model. A cold model predicts nothing,
// so the planner optimistically keeps the requested configuration —
// exactly the fixed-eps behavior — until observations arrive.
func NewModel() *Model {
	return &Model{cells: make(map[Key]*cell)}
}

// Normalize canonicalizes a key: empty family means bags, heuristic
// rungs drop eps and backend.
func (k Key) Normalize() Key {
	if k.Family == "" {
		k.Family = "bags"
	}
	if k.Rung != RungEPTAS {
		k.EpsIdx, k.Backend = -1, ""
	}
	return k
}

// Observe folds one measured solve latency into the model. Call it only
// for solves that ran to completion — a latency truncated by a deadline
// or cancellation would poison the estimate low.
func (m *Model) Observe(k Key, d time.Duration) {
	if d < 0 {
		return
	}
	k = k.Normalize()
	us := float64(d.Microseconds())
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.cells[k]
	if c == nil {
		c = &cell{meanUS: us}
		m.cells[k] = c
	} else {
		c.meanUS += ewmaAlpha * (us - c.meanUS)
	}
	c.count++
	m.version++
	m.observations++
}

// Predict returns the model's latency estimate for a key. When the
// exact cell has no observations it relaxes deterministically: first
// across neighboring size buckets (nearer first, larger before smaller)
// at the key's own eps bucket, then — for eptas keys — borrowing from
// strictly finer (more expensive) eps buckets. Borrowing only ever
// overestimates, so relaxation never talks the planner into a rung the
// model hasn't earned evidence for. ok is false when nothing relevant
// has been observed — callers treat an unknown configuration
// optimistically so a cold model changes nothing.
func (m *Model) Predict(k Key) (time.Duration, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.predictLocked(k.Normalize())
}

func (m *Model) predictLocked(k Key) (time.Duration, bool) {
	for pass := 0; pass < 2; pass++ {
		for d := 0; d <= maxSizeRelax; d++ {
			for i, size := range [2]int{k.Size + d, k.Size - d} {
				if size < 0 || (d == 0 && i == 1) {
					continue
				}
				probe := k
				probe.Size = size
				if pass == 0 {
					if c := m.cells[probe]; c != nil {
						return time.Duration(c.meanUS) * time.Microsecond, true
					}
					continue
				}
				if k.Rung != RungEPTAS {
					continue
				}
				for idx := k.EpsIdx - 1; idx >= 0; idx-- {
					probe.EpsIdx = idx
					if c := m.cells[probe]; c != nil {
						return time.Duration(c.meanUS) * time.Microsecond, true
					}
				}
			}
		}
	}
	return 0, false
}

// Stats is a point-in-time summary of the model.
type Stats struct {
	// Cells is the number of distinct learned configurations.
	Cells int
	// Version counts observations folded in since the model was built
	// or imported; Decide stamps it on every decision.
	Version uint64
	// Observations is the total Observe calls absorbed.
	Observations uint64
}

// Snapshot returns the model's current summary.
func (m *Model) Snapshot() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return Stats{Cells: len(m.cells), Version: m.version, Observations: m.observations}
}

// Request is one admission-time planning question.
type Request struct {
	// Family is the problem-family name; empty means bags.
	Family string
	// Jobs and Machines size the instance.
	Jobs, Machines int
	// Eps is the requested accuracy; the ladder starts there.
	Eps float64
	// Backend names the oracle policy the eptas rungs run with (see
	// Key.Backend); their predictions come from its cells.
	Backend string
	// Budget is the latency budget; 0 means no deadline (the requested
	// rung always fits).
	Budget time.Duration
	// MinQuality is the quality floor: the worst acceptable
	// approximation bound. 0 means no floor. Rungs whose bound exceeds
	// it are never chosen; a floor below 1 is rejected by callers.
	MinQuality float64
}

// Decision is the planner's answer.
type Decision struct {
	// Rung is the chosen ladder rung (its Bound is the reported
	// guarantee).
	Rung Rung
	// Predicted is the model's latency estimate for the choice; Known
	// is false when the model had no relevant observation (the planner
	// then chose optimistically).
	Predicted time.Duration
	Known     bool
	// ModelVersion is the model version the decision was keyed by —
	// decisions are a pure function of (request, model version).
	ModelVersion uint64
	// Degraded reports that the chosen rung is not the requested one.
	Degraded bool
	// BestEffort reports that no rung was predicted to fit the budget
	// and — because no quality floor demanded a refusal — the planner
	// answered with the cheapest-predicted rung anyway.
	BestEffort bool
}

// Decide walks the degradation ladder front to back and returns the
// first rung that satisfies the quality floor and is predicted to
// finish within the budget's headroom. Unknown configurations are
// treated as fitting (a cold model must not change behavior).
// When no rung fits and a quality floor is set, the deadline and the
// floor are jointly unsatisfiable and Decide fails with
// ErrUnattainable — the hard 422-style refusal. Without a floor there
// is nothing to refuse on behalf of, so Decide answers best-effort: the
// cheapest-predicted rung, flagged Decision.BestEffort. Decide never
// runs anything — it only picks.
func (m *Model) Decide(req Request) (Decision, error) {
	rungs := Ladder(req.Family, req.Machines, req.Eps)
	size := SizeClass(req.Jobs)
	fit := headroom(req.Budget)

	m.mu.RLock()
	defer m.mu.RUnlock()
	version := m.version
	sawFeasible := false
	best := Decision{ModelVersion: version}
	bestIdx := -1
	for i, r := range rungs {
		if req.MinQuality > 0 && r.Bound > req.MinQuality {
			continue
		}
		sawFeasible = true
		key := Key{Family: req.Family, Size: size, Rung: r.Name}
		if !r.Heuristic() {
			key.EpsIdx, key.Backend = EpsIndex(r.Eps), req.Backend
		}
		pred, known := m.predictLocked(key.Normalize())
		if req.Budget > 0 && known && pred > fit {
			if bestIdx < 0 || pred < best.Predicted {
				best = Decision{Rung: r, Predicted: pred, Known: true,
					ModelVersion: version, Degraded: i > 0, BestEffort: true}
				bestIdx = i
			}
			continue
		}
		return Decision{
			Rung:         r,
			Predicted:    pred,
			Known:        known,
			ModelVersion: version,
			Degraded:     i > 0,
		}, nil
	}
	if !sawFeasible {
		return Decision{}, fmt.Errorf("%w: quality floor %g excludes every rung of the ladder (finest available bound %g)",
			ErrUnattainable, req.MinQuality, 1+req.Eps)
	}
	if req.MinQuality > 0 {
		return Decision{}, fmt.Errorf("%w: no configuration meeting quality floor %g is predicted to finish within %s",
			ErrUnattainable, req.MinQuality, req.Budget)
	}
	return best, nil
}
