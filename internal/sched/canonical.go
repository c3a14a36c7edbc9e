package sched

import (
	"bytes"

	"repro/internal/jsonscan"
)

// decodeCanonical is the one-pass fast path of Instance.UnmarshalJSON.
// It decodes data straight into an Instance when data is a canonical
// instance document (see ScanInstance) and nothing follows it but
// whitespace.
//
// ok is false for every other input, including inputs the reference
// decoder accepts; the caller then runs decodeReference, which stays
// the only judge of errors. Whenever ok is true the result equals what
// decodeReference returns for data, bit for bit — FuzzInstanceJSON
// checks both halves of that contract.
func decodeCanonical(data []byte) (Instance, bool) {
	s := jsonscan.New(data)
	in, ok := ScanInstance(&s)
	if !ok || !s.AtEnd() {
		return Instance{}, false
	}
	return in, true
}

// ScanInstance decodes the canonical instance document at the scanner's
// position, without validating it:
//
//   - one JSON object whose keys are among "machines", "num_bags",
//     "speeds" and "jobs", each at most once;
//   - "jobs" an array of objects whose keys are among "id", "size" and
//     "bag", each at most once; "speeds" an array of numbers;
//   - every key spelled exactly, with no escapes (encoding/json would
//     also match case-folded keys);
//   - integers in JSON integer grammar that fit an int, floats in JSON
//     number grammar within float64 range, and no null anywhere.
//
// ok is false for every other input. When ok is true the Instance is
// what the reference decoder yields for the same object. The request
// decoder of internal/wire reads the instance of a /v1/solve body with
// it, so the two fast paths share one grammar.
func ScanInstance(s *jsonscan.Scanner) (in Instance, ok bool) {
	var seen uint8
	ok = s.Object(func(key []byte) bool {
		var bit uint8
		switch string(key) {
		case "machines":
			bit = 1
		case "num_bags":
			bit = 2
		case "speeds":
			bit = 4
		case "jobs":
			bit = 8
		default:
			return false
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		var ok bool
		switch bit {
		case 1:
			in.Machines, ok = s.Int()
		case 2:
			in.NumBags, ok = s.Int()
		case 4:
			in.Speeds, ok = scanSpeeds(s)
		case 8:
			in.Jobs, ok = scanJobs(s)
		}
		return ok
	})
	if !ok {
		return Instance{}, false
	}
	if in.Jobs == nil {
		in.Jobs = []Job{}
	}
	extendBags(&in)
	return in, true
}

// extendBags raises NumBags above every job's bag, the normalization
// both decode paths apply.
func extendBags(in *Instance) {
	for _, j := range in.Jobs {
		if j.Bag >= in.NumBags {
			in.NumBags = j.Bag + 1
		}
	}
}

// minJobText is the length of the shortest job object that can decode
// to a valid job, `{"size":1}`, plus its separating comma. It caps the
// jobs-array preallocation so that text which is not a canonical
// document can never allocate much more than its own size.
const minJobText = len(`{"size":1}`) + 1

// scanSpeeds reads the "speeds" array, sized up front from the commas
// before the next ']', so it costs one allocation. Like encoding/json it
// yields an empty, non-nil slice for [].
func scanSpeeds(s *jsonscan.Scanner) ([]float64, bool) {
	rest := s.Rest()
	n := 1
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		n += bytes.Count(rest[:end], []byte{','})
	}
	out := make([]float64, 0, n)
	ok := s.Array(func() bool {
		f, ok := s.Float()
		out = append(out, f)
		return ok
	})
	return out, ok
}

// scanJobs reads the "jobs" array, sized up front from the number of
// objects ahead (capped by minJobText), so a canonical document costs
// one allocation for all its jobs.
func scanJobs(s *jsonscan.Scanner) ([]Job, bool) {
	rest := s.Rest()
	n := bytes.Count(rest, []byte{'{'})
	if limit := len(rest) / minJobText; n > limit {
		n = limit
	}
	out := make([]Job, 0, n)
	ok := s.Array(func() bool {
		var j Job
		var seen uint8
		ok := s.Object(func(key []byte) bool {
			var bit uint8
			switch string(key) {
			case "id":
				bit = 1
			case "size":
				bit = 2
			case "bag":
				bit = 4
			default:
				return false
			}
			if seen&bit != 0 {
				return false
			}
			seen |= bit
			var ok bool
			switch bit {
			case 1:
				var id int
				id, ok = s.Int()
				j.ID = JobID(id)
			case 2:
				j.Size, ok = s.Float()
			case 4:
				j.Bag, ok = s.Int()
			}
			return ok
		})
		out = append(out, j)
		return ok
	})
	return out, ok
}
