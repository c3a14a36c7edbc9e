package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"sync"

	"repro/internal/jsonscan"
	"repro/internal/sched"
)

// The fast paths of the codec: a one-pass decoder for canonical
// /v1/solve bodies and an append encoder for solve results. Both are
// held to encoding/json, the reference: the decoder declines whatever
// it does not fully understand and the reference decides, and the
// encoder writes exactly the reference's bytes.

// Field bits of a canonical request body; each key may appear once.
const (
	bitEps uint16 = 1 << iota
	bitBackend
	bitFamily
	bitTimeout
	bitNoCache
	bitOracleWorkers
	bitDeadline
	bitMinQuality
	bitAdaptive
	bitInstance
	bitSpec
)

// decodeSolveRequest is the one-pass fast path of Unmarshal into a
// SolveRequest. It decodes data when data is a canonical body:
//
//   - one JSON object holding "instance" (a canonical instance
//     document, see sched.ScanInstance, that passes Instance.Validate),
//     the flat SolveSpec knobs and "spec" (an object of the same knobs),
//     each key at most once and spelled exactly, without escapes;
//   - integer knobs in JSON integer grammar, eps and min_quality within
//     float64 range, strings of printable ASCII without escapes;
//   - no null anywhere and nothing after the object but whitespace.
//
// ok is false for every other input, including bodies the reference
// accepts; Unmarshal then runs encoding/json, which stays the only
// judge of request errors. Whenever ok is true the request equals what
// the reference decodes from data (FuzzDecodeSolveRequest).
func decodeSolveRequest(data []byte) (req SolveRequest, ok bool) {
	s := jsonscan.New(data)
	var seen uint16
	ok = s.Object(func(key []byte) bool {
		switch string(key) {
		case "instance":
			if seen&bitInstance != 0 {
				return false
			}
			seen |= bitInstance
			in, ok := sched.ScanInstance(&s)
			if !ok || in.Validate() != nil {
				return false
			}
			req.Instance = &in
			return true
		case "spec":
			if seen&bitSpec != 0 {
				return false
			}
			seen |= bitSpec
			sp := new(SolveSpec)
			var specSeen uint16
			req.Spec = sp
			return s.Object(func(key []byte) bool { return scanSpecField(&s, key, sp, &specSeen) })
		}
		return scanSpecField(&s, key, &req.SolveSpec, &seen)
	})
	if !ok || !s.AtEnd() {
		return SolveRequest{}, false
	}
	return req, true
}

// scanSpecField decodes the value of the SolveSpec knob named key into
// sp, reporting false for an unknown or repeated key or a value outside
// the canonical grammar.
func scanSpecField(s *jsonscan.Scanner, key []byte, sp *SolveSpec, seen *uint16) bool {
	var bit uint16
	var ok bool
	switch string(key) {
	case "eps":
		bit = bitEps
		sp.Eps, ok = s.Float()
	case "backend":
		bit = bitBackend
		sp.Backend, ok = s.String()
	case "family":
		bit = bitFamily
		sp.Family, ok = s.String()
	case "timeout_ms":
		bit = bitTimeout
		sp.TimeoutMS, ok = s.Int64()
	case "no_cache":
		bit = bitNoCache
		sp.NoCache, ok = s.Bool()
	case "oracle_workers":
		bit = bitOracleWorkers
		sp.OracleWorkers, ok = s.Int()
	case "deadline_ms":
		bit = bitDeadline
		sp.DeadlineMS, ok = s.Int64()
	case "min_quality":
		bit = bitMinQuality
		sp.MinQuality, ok = s.Float()
	case "adaptive":
		bit = bitAdaptive
		sp.Adaptive, ok = s.Bool()
	default:
		return false
	}
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return ok
}

// appendSolveResult appends r exactly as a json.Encoder with
// SetIndent("", "  ") writes it, trailing newline included, or returns
// the error that encoder returns (a non-finite float).
// TestAppendSolveResultMatchesReference holds it to that.
func appendSolveResult(dst []byte, r *SolveResult) ([]byte, error) {
	e := appender{b: dst}
	e.text("{\n  \"makespan\": ")
	e.float(r.Makespan)
	e.text(",\n  \"lower_bound\": ")
	e.float(r.LowerBound)
	e.text(",\n  \"assignment\": ")
	e.ints(r.Assignment)
	e.text(",\n  \"loads\": ")
	e.floats(r.Loads)
	e.text(",\n  \"guesses\": ")
	e.int(int64(r.Guesses))
	e.text(",\n  \"cache_hits\": ")
	e.int(int64(r.CacheHits))
	e.text(",\n  \"cache_misses\": ")
	e.int(int64(r.CacheMisses))
	if r.FinalGuess != 0 {
		e.text(",\n  \"final_guess\": ")
		e.float(r.FinalGuess)
	}
	if r.Fallback {
		e.text(",\n  \"fallback\": true")
	}
	if r.Backend != "" {
		e.text(",\n  \"backend\": ")
		e.string(r.Backend)
	}
	e.text(",\n  \"elapsed_us\": ")
	e.int(r.ElapsedUS)
	q := &r.Quality
	e.text(",\n  \"quality\": {\n    \"rung\": ")
	e.string(q.Rung)
	e.text(",\n    \"eps_used\": ")
	e.float(q.EpsUsed)
	if q.BackendUsed != "" {
		e.text(",\n    \"backend_used\": ")
		e.string(q.BackendUsed)
	}
	e.text(",\n    \"bound\": ")
	e.float(q.Bound)
	if q.Degraded {
		e.text(",\n    \"degraded\": true")
	}
	if q.BestEffort {
		e.text(",\n    \"best_effort\": true")
	}
	if q.PlannerUS != 0 {
		e.text(",\n    \"planner_us\": ")
		e.int(q.PlannerUS)
	}
	if q.PredictedUS != 0 {
		e.text(",\n    \"predicted_us\": ")
		e.int(q.PredictedUS)
	}
	if q.ModelVersion != 0 {
		e.text(",\n    \"model_version\": ")
		e.b = strconv.AppendUint(e.b, q.ModelVersion, 10)
	}
	e.text("\n  }\n}\n")
	return e.b, e.err
}

// appender appends JSON values the way encoding/json writes them, with
// a sticky error.
type appender struct {
	b   []byte
	err error
}

func (e *appender) text(s string) { e.b = append(e.b, s...) }

func (e *appender) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

// float writes f as encoding/json does: shortest round-trip digits,
// exponent form below 1e-6 and from 1e21 with a one-digit negative
// exponent unpadded, and an UnsupportedValueError for NaN and ±Inf.
func (e *appender) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// string writes s quoted. A string of printable ASCII that encoding/json
// writes as is (no quote, backslash or HTML-sensitive <, >, &) is
// copied; any other string is left to json.Marshal, which escapes it
// exactly as the reference encoder does.
func (e *appender) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// The two arrays of a solve result sit at depth 1, so their elements
// are indented by two levels and the closing bracket by one; nil is
// null and an empty slice [].

func (e *appender) ints(v []int) {
	switch {
	case v == nil:
		e.text("null")
	case len(v) == 0:
		e.text("[]")
	default:
		e.text("[\n    ")
		for i, x := range v {
			if i > 0 {
				e.text(",\n    ")
			}
			e.int(int64(x))
		}
		e.text("\n  ]")
	}
}

func (e *appender) floats(v []float64) {
	switch {
	case v == nil:
		e.text("null")
	case len(v) == 0:
		e.text("[]")
	default:
		e.text("[\n    ")
		for i, x := range v {
			if i > 0 {
				e.text(",\n    ")
			}
			e.float(x)
		}
		e.text("\n  ]")
	}
}

// bufPool recycles the buffers Decode reads bodies into and Encode
// builds solve results in. Buffers grown past maxPooledBuffer are
// dropped, so one oversized body does not pin its memory.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuffer = 64 << 10

func getBuffer() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		bufPool.Put(b)
	}
}
