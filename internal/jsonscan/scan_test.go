package jsonscan

import (
	"math"
	"testing"
)

// TestScalars pins what each scalar reader accepts: the values it reads
// equal what encoding/json decodes into the same Go type, and it
// declines whatever is outside the subset, including input the
// reference accepts (escapes, non-ASCII strings).
func TestScalars(t *testing.T) {
	ints := map[string]bool{"0": true, "-0": true, " 42": true, "-17": true, "9223372036854775807": true,
		"9223372036854775808": false, "1.0": false, "1e2": false, "-": false, "+1": false, "": false, "null": false}
	for in, ok := range ints {
		s := New([]byte(in))
		if _, got := s.Int64(); got != ok {
			t.Errorf("Int64(%q) ok = %v, want %v", in, got, ok)
		}
	}
	floats := map[string]float64{"0": 0, "1.5": 1.5, "-2.5e-3": -2.5e-3, "1E+2": 100, "5e-324": 5e-324}
	for in, want := range floats {
		s := New([]byte(in))
		if got, ok := s.Float(); !ok || got != want {
			t.Errorf("Float(%q) = %v, %v; want %v", in, got, ok, want)
		}
	}
	for _, in := range []string{"1e400", ".5", "1.", "1e", "-e1", "Infinity", "NaN"} {
		s := New([]byte(in))
		if f, ok := s.Float(); ok {
			t.Errorf("Float(%q) accepted as %v", in, f)
		}
	}
	negZero := New([]byte("-0"))
	if f, ok := negZero.Float(); !ok || !math.Signbit(f) {
		t.Errorf("Float(-0) = %v, %v; want negative zero", f, ok)
	}
	strs := map[string]bool{`"bnb"`: true, `""`: true, `"a b~"`: true, `"b\u0061"`: false, `"a\"b"`: false,
		"\"a\tb\"": false, `"é"`: false, "\"\x7f\"": false, `"open`: false, `bnb`: false}
	for in, ok := range strs {
		s := New([]byte(in))
		if _, got := s.String(); got != ok {
			t.Errorf("String(%q) ok = %v, want %v", in, got, ok)
		}
	}
	bools := map[string]bool{"true": true, " false": true, "True": false, "tru": false, "1": false, "null": false}
	for in, ok := range bools {
		s := New([]byte(in))
		if _, got := s.Bool(); got != ok {
			t.Errorf("Bool(%q) ok = %v, want %v", in, got, ok)
		}
	}
}

// TestStructure: objects report each key once the scanner sits before
// its value, arrays each element, and AtEnd sees only trailing
// whitespace.
func TestStructure(t *testing.T) {
	s := New([]byte(" { \"a\" : [ 1 , 2 ] , \"b\" : { } }\n"))
	var keys []string
	var sum int64
	ok := s.Object(func(key []byte) bool {
		keys = append(keys, string(key))
		if string(key) == "b" {
			return s.Object(func([]byte) bool { return false })
		}
		return s.Array(func() bool {
			n, ok := s.Int64()
			sum += n
			return ok
		})
	})
	if !ok || len(keys) != 2 || keys[0] != "a" || keys[1] != "b" || sum != 3 || !s.AtEnd() {
		t.Fatalf("ok %v, keys %q, sum %d, at end %v", ok, keys, sum, s.AtEnd())
	}
	for _, in := range []string{`{"a":1,}`, `{"a" 1}`, `{"a\u0062":1}`, "{\"a\nb\":1}", `{"a":1`, `[1,]`, `[1 2]`} {
		s := New([]byte(in))
		ok := s.Object(func([]byte) bool { _, ok := s.Int64(); return ok })
		if in[0] == '[' {
			ok = s.Array(func() bool { _, ok := s.Int64(); return ok })
		}
		if ok {
			t.Errorf("accepted %q", in)
		}
	}
	if s := New([]byte(`{} x`)); !s.Object(nil) || s.AtEnd() {
		t.Error("trailing data went unnoticed")
	}
}
