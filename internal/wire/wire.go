// Package wire is the transport-neutral solve-request/response codec of
// the serving layer: the request and response document types and their
// strict JSON encoding, shared by the HTTP front end (internal/server),
// the shard router (internal/shard) and any future gRPC gateway. The
// documents carry no transport state — a router can decode a request,
// split or re-route it, and re-encode it byte-compatibly.
//
// All three request bodies share one solve-configuration block,
// SolveSpec. It is embedded, so the legacy flat fields ("eps",
// "backend", ...) keep decoding exactly as before, and it can also be
// sent nested under "spec", which then wins wholesale over any flat
// fields. Every successful response carries a Quality block reporting
// which rung of the degradation ladder answered and the approximation
// bound it guarantees.
//
// Decoding is strict everywhere: unknown fields and trailing data are
// errors, so a typo'd knob fails loudly instead of silently selecting a
// default, and every front end rejects exactly the same bodies.
//
// encoding/json is the reference codec. Two hand-written fast paths
// sit in front of it for the per-request documents of /v1/solve. A
// canonical SolveRequest body — the instance and the flat or nested
// knobs, each key once, spelled exactly and unescaped, no null,
// integers in integer grammar, a valid instance, no trailing data — is
// decoded in one pass with the instance scanner internal/sched uses
// (internal/jsonscan). Any other body (escapes, case-folded or
// duplicate keys, null, unknown keys, trailing data, an invalid
// instance) is declined to encoding/json, which stays the only judge of
// request errors; FuzzDecodeSolveRequest holds the fast path to the
// reference's result. A *SolveResult is written by an append encoder
// whose bytes equal the reference's indented output, and which fails
// where it fails, on a non-finite float
// (TestAppendSolveResultMatchesReference). Every other document,
// batch and resolve bodies included, goes through encoding/json.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// SolveSpec is the shared solve-configuration block of every request:
// what accuracy, which family and backend, how much time, and — for
// SLO-aware serving — the deadline, quality floor and adaptive switch.
// Zero values always mean "server default".
type SolveSpec struct {
	// Eps overrides the server's default accuracy (0 keeps the default).
	Eps float64 `json:"eps"`
	// Backend pins the oracle backend ("bnb" or "cfgdp"); empty runs
	// the default oracle policy (cfgdp, then bnb).
	Backend string `json:"backend"`
	// Family selects the problem family ("bags", "identical",
	// "related"; empty selects bags, the bag-constrained default).
	Family string `json:"family"`
	// TimeoutMS bounds this solve's wall clock; clamped to the server
	// maximum. 0 selects the server default.
	TimeoutMS int64 `json:"timeout_ms"`
	// NoCache bypasses the shared cache for this solve (it still gets a
	// private per-solve memo, exactly like the CLI). Used by the
	// differential tests and the load driver's baseline mode.
	NoCache bool `json:"no_cache"`
	// OracleWorkers is accepted for compatibility and has no effect:
	// every oracle solve is sequential. A negative value is still a
	// client error.
	OracleWorkers int `json:"oracle_workers"`
	// DeadlineMS is the request's latency budget for SLO-aware serving.
	// It bounds the solve like timeout_ms (whichever is tighter wins)
	// and, under "adaptive", is the budget the planner fits a
	// configuration into. 0 means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MinQuality is the worst acceptable approximation bound (e.g. 1.5).
	// When no ladder rung meets both the floor and the deadline the
	// server refuses with 422 "unattainable" instead of degrading
	// further. 0 means no floor. Only meaningful with "adaptive".
	MinQuality float64 `json:"min_quality,omitempty"`
	// Adaptive enables admission-time planning: the server may coarsen
	// eps or answer with a bounded heuristic to meet the deadline,
	// reporting what it did in the response's "quality" block. Off, the
	// request runs exactly as specified.
	Adaptive bool `json:"adaptive,omitempty"`
}

// SolveRequest is the body of POST /v1/solve (and the per-item unit a
// router hashes to pick a replica). The solve knobs arrive either flat
// (the embedded SolveSpec — the legacy encoding) or nested under
// "spec"; use EffectiveSpec to read them.
type SolveRequest struct {
	// Instance is the instance to schedule (required).
	Instance *sched.Instance `json:"instance"`
	SolveSpec
	// Spec is the nested form of the solve knobs. When present it wins
	// wholesale — flat fields are ignored, not merged.
	Spec *SolveSpec `json:"spec,omitempty"`
}

// EffectiveSpec resolves the request's solve knobs: the nested "spec"
// block when present, the flat legacy fields otherwise.
func (r *SolveRequest) EffectiveSpec() SolveSpec {
	if r.Spec != nil {
		return *r.Spec
	}
	return r.SolveSpec
}

// BatchRequest is the body of POST /v1/batch; the spec applies to
// every instance.
type BatchRequest struct {
	Instances []*sched.Instance `json:"instances"`
	SolveSpec
	// Spec is the nested form of the solve knobs; when present it wins
	// wholesale over the flat fields.
	Spec *SolveSpec `json:"spec,omitempty"`
}

// EffectiveSpec resolves the batch's solve knobs; see
// SolveRequest.EffectiveSpec.
func (b *BatchRequest) EffectiveSpec() SolveSpec {
	if b.Spec != nil {
		return *b.Spec
	}
	return b.SolveSpec
}

// Item returns the solve-request view of one batch element, for front
// ends (the shard router) that handle batch items individually.
func (b *BatchRequest) Item(i int) SolveRequest {
	return SolveRequest{Instance: b.Instances[i], SolveSpec: b.EffectiveSpec()}
}

// Quality reports what a response actually guarantees: which rung of
// the degradation ladder answered and its approximation bound. Present
// on every successful response, adaptive or not.
type Quality struct {
	// Rung names what produced the schedule: "eptas" for a full search,
	// "baglpt"/"greedy" for heuristic answers, "repair" for the
	// placement-repair fast path of /v1/resolve.
	Rung string `json:"rung"`
	// EpsUsed is the accuracy the search ran at — under adaptive
	// serving possibly coarser than requested; 0 for heuristic rungs.
	EpsUsed float64 `json:"eps_used"`
	// BackendUsed is the oracle backend that decided the last accepted
	// guess (empty when no search ran).
	BackendUsed string `json:"backend_used,omitempty"`
	// Bound is the worst-case approximation guarantee of this answer:
	// 1+eps_used for eptas and repair rungs, the family's documented
	// heuristic bound otherwise, exactly 1 when provably optimal.
	Bound float64 `json:"bound"`
	// Degraded reports an answer coarser than the request — the planner
	// chose a lower rung, or the search fell back to its heuristic
	// upper bound.
	Degraded bool `json:"degraded,omitempty"`
	// BestEffort reports that no configuration was predicted to meet
	// the deadline and (absent a quality floor) the cheapest rung
	// answered anyway.
	BestEffort bool `json:"best_effort,omitempty"`
	// PlannerUS is the admission-time planning overhead in
	// microseconds; PredictedUS the planner's latency estimate for the
	// chosen configuration (compare with elapsed_us for
	// predicted-vs-actual). Both 0 when adaptive was off.
	PlannerUS   int64 `json:"planner_us,omitempty"`
	PredictedUS int64 `json:"predicted_us,omitempty"`
	// ModelVersion is the cost-model version the planning decision was
	// keyed by (0 when adaptive was off).
	ModelVersion uint64 `json:"model_version,omitempty"`
}

// SolveResult is one solved instance on the wire.
type SolveResult struct {
	Makespan    float64   `json:"makespan"`
	LowerBound  float64   `json:"lower_bound"`
	Assignment  []int     `json:"assignment"`
	Loads       []float64 `json:"loads"`
	Guesses     int       `json:"guesses"`
	CacheHits   int       `json:"cache_hits"`
	CacheMisses int       `json:"cache_misses"`
	// FinalGuess is the smallest accepted makespan guess of the search
	// (0 when none was accepted). Feed it back as "prior_guess" of a
	// later /v1/resolve to seed the warm search at the exact boundary.
	FinalGuess float64 `json:"final_guess,omitempty"`
	Fallback   bool    `json:"fallback,omitempty"`
	Backend    string  `json:"backend,omitempty"`
	ElapsedUS  int64   `json:"elapsed_us"`
	// Quality reports the rung that answered and its bound.
	Quality Quality `json:"quality"`
}

// ResolveRequest is the body of POST /v1/resolve: an incremental
// re-solve of a previously solved instance. The server is stateless, so
// the request carries the prior solve's facts explicitly: the pre-delta
// instance, the prior makespan (warm-search seed), optionally the exact
// accepted guess (tighter seed) and the prior assignment (enables the
// repair fast path). Cross-request memo reuse needs nothing from the
// client — the server's shared cache already holds the prior solve's
// per-guess entries when it answered the prior solve.
type ResolveRequest struct {
	// Instance is the pre-delta instance the prior result solved
	// (required).
	Instance *sched.Instance `json:"instance"`
	// Delta is the edit to apply (see the sched.Delta JSON grammar:
	// "add", "remove", "resize", "rebag", "machines", "add_speeds").
	Delta sched.Delta `json:"delta"`
	// PriorMakespan is the prior solve's makespan; it seeds the warm
	// search (0 degrades to a cold search).
	PriorMakespan float64 `json:"prior_makespan"`
	// PriorGuess is the prior solve's final accepted guess
	// ("final_guess" of its response); when set it seeds the warm search
	// at the exact acceptance boundary.
	PriorGuess float64 `json:"prior_guess,omitempty"`
	// PriorAssignment is the prior schedule's machine per job (the
	// "assignment" of the prior response). Required for repair; ignored
	// otherwise.
	PriorAssignment []int `json:"prior_assignment,omitempty"`
	// Repair enables the placement-repair fast path: absorb the delta by
	// re-placing only churned jobs when the result stays within
	// (1+eps) of the post-delta lower bound. Repaired responses are not
	// bit-identical to a from-scratch solve (the certificate holds
	// instead); off by default.
	Repair bool `json:"repair,omitempty"`

	// The solve knobs, flat (legacy) or nested under "spec", exactly as
	// in SolveRequest.
	SolveSpec
	Spec *SolveSpec `json:"spec,omitempty"`
}

// EffectiveSpec resolves the re-solve's solve knobs; see
// SolveRequest.EffectiveSpec.
func (r *ResolveRequest) EffectiveSpec() SolveSpec {
	if r.Spec != nil {
		return *r.Spec
	}
	return r.SolveSpec
}

// ResolveResult is the body of a successful POST /v1/resolve response:
// a SolveResult for the post-delta instance plus the repair outcome.
type ResolveResult struct {
	SolveResult
	// Repaired reports that the placement-repair fast path answered
	// (no search ran); the repair counters below describe it.
	Repaired        bool `json:"repaired,omitempty"`
	RepairKept      int  `json:"repair_kept,omitempty"`
	RepairMoved     int  `json:"repair_moved,omitempty"`
	RepairDisplaced int  `json:"repair_displaced,omitempty"`
}

// BatchItem is one batch outcome: exactly one of the embedded result
// and Error is meaningful.
type BatchItem struct {
	*SolveResult
	Error string `json:"error,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/batch response,
// outcomes in input order.
type BatchResponse struct {
	Outcomes  []BatchItem `json:"outcomes"`
	ElapsedUS int64       `json:"elapsed_us"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// FromQuality shapes a solve's quality report for the wire.
func FromQuality(q core.Quality) Quality {
	return Quality{
		Rung:         q.Rung,
		EpsUsed:      q.EpsUsed,
		BackendUsed:  q.BackendUsed,
		Bound:        q.Bound,
		Degraded:     q.Degraded,
		BestEffort:   q.BestEffort,
		PlannerUS:    q.PlannerTime.Microseconds(),
		PredictedUS:  q.Predicted.Microseconds(),
		ModelVersion: q.ModelVersion,
	}
}

// FromResult shapes one successful solver outcome for the wire. The
// bool is ignored; the perfbench module still passes one.
func FromResult(res *core.Result, _ bool, elapsed time.Duration) *SolveResult {
	return &SolveResult{
		Makespan:    res.Makespan,
		LowerBound:  res.LowerBound,
		Assignment:  res.Schedule.Machine,
		Loads:       res.Schedule.Loads(),
		Guesses:     res.Stats.Guesses,
		CacheHits:   res.Stats.CacheHits,
		CacheMisses: res.Stats.CacheMisses,
		FinalGuess:  res.Stats.FinalGuess,
		Fallback:    res.Stats.Fallback,
		Backend:     res.Stats.OracleBackend,
		ElapsedUS:   elapsed.Microseconds(),
		Quality:     FromQuality(res.Quality),
	}
}

// FromResolveResult shapes one successful incremental re-solve outcome
// for the wire. The bool is ignored, as in FromResult.
func FromResolveResult(res *core.Result, _ bool, elapsed time.Duration) *ResolveResult {
	return &ResolveResult{
		SolveResult:     *FromResult(res, false, elapsed),
		Repaired:        res.Stats.Repaired,
		RepairKept:      res.Stats.RepairStats.Kept,
		RepairMoved:     res.Stats.RepairStats.Moved,
		RepairDisplaced: res.Stats.RepairStats.Displaced,
	}
}

// ErrTrailingData reports well-formed JSON followed by more input.
var ErrTrailingData = errors.New("wire: trailing data after JSON body")

// Decode reads one strict JSON document from r into dst: unknown fields
// and trailing data are errors. Transport limits (maximum body size)
// are the caller's job — wrap r before decoding. A *SolveRequest is read
// to the end of r into a pooled buffer and decoded as Unmarshal does;
// every other document streams through encoding/json.
func Decode(r io.Reader, dst any) error {
	req, ok := dst.(*SolveRequest)
	if !ok {
		return decodeReference(r, dst)
	}
	buf := getBuffer()
	defer putBuffer(buf)
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	return Unmarshal(buf.Bytes(), req)
}

// Unmarshal is Decode over a byte slice. A canonical /v1/solve body
// decoded into a zero *SolveRequest takes the one-pass fast path (see
// decodeSolveRequest); everything else, and every error, is
// encoding/json's.
func Unmarshal(data []byte, dst any) error {
	if req, ok := dst.(*SolveRequest); ok && *req == (SolveRequest{}) {
		if fast, ok := decodeSolveRequest(data); ok {
			*req = fast
			return nil
		}
	}
	return decodeReference(bytes.NewReader(data), dst)
}

// decodeReference is the encoding/json decoder behind Decode and
// Unmarshal, the judge of every request error.
func decodeReference(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return ErrTrailingData
	}
	return nil
}

// Encode writes v to w as indented JSON, the canonical response
// encoding of every front end: the bytes of a json.Encoder with
// SetIndent("", "  "). A *SolveResult is appended by a hand-written
// encoder that writes those same bytes and fails on the same values
// (a non-finite float); every other document goes through
// encoding/json. On error nothing is written to w.
func Encode(w io.Writer, v any) error {
	if r, ok := v.(*SolveResult); ok && r != nil {
		return encodeSolveResult(w, r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	return nil
}

// encodeSolveResult appends r to w's spare capacity when w is a
// *bytes.Buffer, and to a pooled buffer written to w in one call
// otherwise.
func encodeSolveResult(w io.Writer, r *SolveResult) error {
	buf, direct := w.(*bytes.Buffer)
	if !direct {
		buf = getBuffer()
		defer putBuffer(buf)
	}
	b, err := appendSolveResult(buf.AvailableBuffer(), r)
	if err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	buf.Write(b)
	if !direct {
		if _, err := w.Write(buf.Bytes()); err != nil {
			return fmt.Errorf("wire: encode: %w", err)
		}
	}
	return nil
}
