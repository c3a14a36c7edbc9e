package sched

import (
	"bytes"
	"strconv"
)

// decodeCanonical is the one-pass fast path of Instance.UnmarshalJSON.
// It decodes data straight into an Instance when data is a canonical
// instance document:
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
// ok is false for every other input, including inputs the reference
// decoder accepts; the caller then runs decodeReference, which stays
// the only judge of errors. Whenever ok is true the result equals what
// decodeReference returns for data, bit for bit — FuzzInstanceJSON
// checks both halves of that contract.
func decodeCanonical(data []byte) (in Instance, ok bool) {
	s := canonScanner{data: data}
	var seen uint8
	ok = s.object(func(key []byte) bool {
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
			in.Machines, ok = s.int()
		case 2:
			in.NumBags, ok = s.int()
		case 4:
			in.Speeds, ok = s.speeds()
		case 8:
			in.Jobs, ok = s.jobs()
		}
		return ok
	})
	s.skipSpace()
	if !ok || s.pos != len(data) {
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

// canonScanner reads a canonical instance document left to right.
// Every method skips leading whitespace and reports false on anything
// outside the canonical grammar.
type canonScanner struct {
	data []byte
	pos  int
}

func (s *canonScanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was next.
func (s *canonScanner) consume(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// object scans one JSON object, calling member with each key once the
// scanner sits before that key's value; member decodes the value and
// reports whether it could.
func (s *canonScanner) object(member func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.key()
		if !ok || !member(key) {
			return false
		}
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// array scans one JSON array, calling elem once per element.
func (s *canonScanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.consume(',') {
			return s.consume(']')
		}
	}
}

// key reads a quoted member name and its colon. Names with escapes or
// control bytes are not canonical.
func (s *canonScanner) key() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.pos
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i], s.consume(':')
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// number reads one token of JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text
// and whether it is an integer (no fraction, no exponent).
func (s *canonScanner) number() (tok []byte, integer, ok bool) {
	s.skipSpace()
	d, i := s.data, s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		integer = false
		if i++; i == len(d) || !isDigit(d[i]) {
			return nil, false, false
		}
		i = digits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		integer = false
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i == len(d) || !isDigit(d[i]) {
			return nil, false, false
		}
		i = digits(d, i)
	}
	tok, s.pos = d[s.pos:i], i
	return tok, integer, true
}

// int reads an integer that fits an int, exactly as encoding/json
// decodes one into an int field.
func (s *canonScanner) int() (int, bool) {
	tok, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(n), err == nil
}

// float reads a number within float64 range, exactly as encoding/json
// decodes one into a float64 field.
func (s *canonScanner) float() (float64, bool) {
	tok, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// speeds reads the "speeds" array. Like encoding/json it yields an
// empty, non-nil slice for [].
func (s *canonScanner) speeds() ([]float64, bool) {
	out := []float64{}
	ok := s.array(func() bool {
		f, ok := s.float()
		out = append(out, f)
		return ok
	})
	return out, ok
}

// jobs reads the "jobs" array, sized up front from the number of
// objects ahead (capped by minJobText), so a canonical document costs
// one allocation for all its jobs.
func (s *canonScanner) jobs() ([]Job, bool) {
	rest := s.data[s.pos:]
	n := bytes.Count(rest, []byte{'{'})
	if limit := len(rest) / minJobText; n > limit {
		n = limit
	}
	out := make([]Job, 0, n)
	ok := s.array(func() bool {
		var j Job
		var seen uint8
		ok := s.object(func(key []byte) bool {
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
				id, ok = s.int()
				j.ID = JobID(id)
			case 2:
				j.Size, ok = s.float()
			case 4:
				j.Bag, ok = s.int()
			}
			return ok
		})
		out = append(out, j)
		return ok
	})
	return out, ok
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}
