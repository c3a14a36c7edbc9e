// Package jsonscan is the one-pass reader behind the canonical-document
// fast paths of the instance decoder (internal/sched) and the
// /v1/solve request decoder (internal/wire). It reads a strict subset
// of JSON left to right without building any intermediate value:
//
//   - object members are reported key by key, each key spelled without
//     escapes or control bytes;
//   - numbers follow JSON number grammar and are parsed exactly as
//     encoding/json parses them into an int, int64 or float64 field;
//   - strings hold printable ASCII only, no escapes;
//   - true and false are the only literals; null is never read.
//
// Every method reports false on anything outside that subset, including
// input encoding/json accepts. A caller that gets false falls back to
// encoding/json, which stays the only judge of errors; the fast paths
// are fuzzed against that reference.
package jsonscan

import "strconv"

// Scanner reads a document left to right. Every method skips leading
// whitespace first.
type Scanner struct {
	data []byte
	pos  int
}

// New returns a scanner at the start of data.
func New(data []byte) Scanner { return Scanner{data: data} }

// Rest returns the unread input.
func (s *Scanner) Rest() []byte { return s.data[s.pos:] }

// AtEnd skips whitespace and reports whether the input is exhausted.
func (s *Scanner) AtEnd() bool {
	s.skipSpace()
	return s.pos == len(s.data)
}

func (s *Scanner) skipSpace() {
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
func (s *Scanner) consume(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// Object scans one JSON object, calling member with each key once the
// scanner sits before that key's value; member decodes the value and
// reports whether it could.
func (s *Scanner) Object(member func(key []byte) bool) bool {
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

// Array scans one JSON array, calling elem once per element.
func (s *Scanner) Array(elem func() bool) bool {
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
// control bytes are outside the subset.
func (s *Scanner) key() ([]byte, bool) {
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

// String reads a quoted string of printable ASCII without escapes —
// the strings encoding/json decodes byte for byte. Anything else (an
// escape, a control byte, a byte above 0x7e, which encoding/json may
// replace with U+FFFD) is outside the subset.
func (s *Scanner) String() (string, bool) {
	if !s.consume('"') {
		return "", false
	}
	start := s.pos
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return string(s.data[start:i]), true
		case c == '\\' || c < 0x20 || c > 0x7e:
			return "", false
		}
	}
	return "", false
}

// Bool reads true or false.
func (s *Scanner) Bool() (v, ok bool) {
	s.skipSpace()
	rest := s.data[s.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.pos += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.pos += 5
		return false, true
	}
	return false, false
}

// number reads one token of JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text
// and whether it is an integer (no fraction, no exponent).
func (s *Scanner) number() (tok []byte, integer, ok bool) {
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

// Int reads an integer that fits an int, exactly as encoding/json
// decodes one into an int field.
func (s *Scanner) Int() (int, bool) {
	n, ok := s.integer(strconv.IntSize)
	return int(n), ok
}

// Int64 reads an integer that fits an int64, exactly as encoding/json
// decodes one into an int64 field.
func (s *Scanner) Int64() (int64, bool) {
	return s.integer(64)
}

func (s *Scanner) integer(bitSize int) (int64, bool) {
	tok, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, bitSize)
	return n, err == nil
}

// Float reads a number within float64 range, exactly as encoding/json
// decodes one into a float64 field.
func (s *Scanner) Float() (float64, bool) {
	tok, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}
