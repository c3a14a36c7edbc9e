package pipeline

// Result codec: the serialization of one memoized pipeline outcome. It
// is the one format of a memo entry, in memory and on disk: the engine
// commits a run's encoding to the cache (internal/memo), decodes it on
// every hit, and the memo snapshot tier writes the same bytes to
// persist a replica's warm cache and ship it between replicas.
//
// What is serialized is what a cache hit feeds back into a solve: the
// final machine assignment (exact integers, rebound on a hit to the
// requesting, signature-equivalent instance) plus every counter the
// solver statistics absorb (oracle work, classification constants,
// placement and lift repairs, pattern-space sizes). The guess and the
// signature are not: a hit takes them from the request and the memo
// key. Intermediate artifacts (the scaled instance, the enumerated
// pattern space, the transformation) are in no memo entry: a decoded
// Result serves warm requests bit-identically — the snapshot
// differential test at the repository root proves it corpus-wide — but
// is not a substitute for a fresh RunPipeline when a caller wants to
// inspect intermediates. Everything on the wire is integral (counts,
// exact fixed-point-derived assignments) except the backend name; no
// floats are serialized, so the payload is platform-independent by
// construction.
//
// The payload's first byte is its codec version; DecodeResult rejects
// unknown versions, which the memo importer treats as a per-entry skip
// (never fatal). Bump resultCodecVersion whenever the field set below
// changes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/oracle"
	"repro/internal/sched"
)

const resultCodecVersion = 1

// Decode-side sanity bounds: a corrupt length must not drive a huge
// allocation. Both are far above anything the solver produces.
const (
	maxSnapshotJobs     = 1 << 24
	maxSnapshotPatterns = 1 << 24
)

// ErrSnapshotCodec reports a payload DecodeResult cannot interpret.
var ErrSnapshotCodec = errors.New("pipeline: bad result snapshot payload")

// hasFinal is the shape-byte bit above Parts that marks a final
// assignment.
const hasFinal = 1 << 4

// EncodeResult serializes the memoized part of r (see the codec notes
// above) into a slice of its own, sized to fit.
func EncodeResult(r *Result) []byte {
	var tmp [256]byte
	return bytes.Clone(appendResult(tmp[:0], r))
}

// appendResult appends the encoding of r to buf.
func appendResult(buf []byte, r *Result) []byte {
	buf = append(buf, resultCodecVersion)
	buf = putUvarint(buf, uint64(r.Attempts))
	buf = putUvarint(buf, uint64(r.IntegerVars))
	buf = putUvarint(buf, uint64(r.MILPNodes))

	os := r.OracleStats
	buf = putString(buf, os.Backend)
	buf = putUvarint(buf, uint64(os.Nodes))
	buf = putUvarint(buf, uint64(os.Pivots))
	buf = putUvarint(buf, uint64(os.States))
	buf = putUvarint(buf, uint64(os.Raced))
	buf = putUvarint(buf, uint64(os.LoserNodes))
	buf = putUvarint(buf, uint64(os.LoserStates))
	buf = putUvarint(buf, uint64(os.LoserTime))
	// Three retired oracle worker-lane counters keep their slots so the
	// format stays version 1: the lane count a sequential solve recorded
	// (see searchedLanes) and zero speculative claims and adoptions.
	buf = putUvarint(buf, searchedLanes(os))
	buf = putUvarint(buf, 0)
	buf = putUvarint(buf, 0)

	ps := r.PlaceStats
	for _, v := range []int{ps.MachinesUsed, ps.EmptySlots, ps.XConflicts, ps.SwapRepairs, ps.OriginMoves, ps.GenericMoves} {
		buf = putUvarint(buf, uint64(v))
	}
	ls := r.LiftStats
	for _, v := range []int{ls.MediumInserted, ls.MachineCap, ls.FillerSwaps, ls.FallbackMoves} {
		buf = putUvarint(buf, uint64(v))
	}

	shape := byte(r.Parts)
	if r.Final != nil {
		shape |= hasFinal
	}
	buf = append(buf, shape)
	if r.Parts&PartInfo != 0 {
		buf = putUvarint(buf, uint64(r.K))
		buf = putUvarint(buf, uint64(r.Q))
		buf = putUvarint(buf, uint64(r.BPrime))
		buf = putUvarint(buf, uint64(r.PriorityBags))
	}
	if r.Parts&PartSpace != 0 {
		buf = putUvarint(buf, uint64(r.Patterns))
	}
	if r.Parts&PartRelInfo != 0 {
		buf = putUvarint(buf, uint64(r.K))
	}
	if r.Parts&PartRelSpace != 0 {
		buf = putUvarint(buf, uint64(r.Patterns))
	}
	if r.Final != nil {
		buf = putUvarint(buf, uint64(len(r.Final.Machine)))
		for _, m := range r.Final.Machine {
			buf = putVarint(buf, int64(m))
		}
	}
	return buf
}

// searchedLanes is the worker-lane count a sequential oracle solve
// recorded in the payload: 1 once a backend searched the model, 0 when
// no oracle ran or the configuration DP declined the model before
// searching (it counts at least one state whenever it searches).
func searchedLanes(st oracle.Stats) uint64 {
	if st.Backend == "" || (st.Backend == "cfgdp" && st.States == 0) {
		return 0
	}
	return 1
}

// DecodeResult reconstructs a Result encoded by EncodeResult, serving
// memo hits bit-identically to the original (final assignment, all
// absorbed statistics). Guess, Signature and the final schedule's
// instance are left for the caller to bind.
func DecodeResult(payload []byte) (*Result, error) {
	d := &decoder{buf: payload}
	if v := d.byte(); v != resultCodecVersion {
		return nil, fmt.Errorf("%w: codec version %d, want %d", ErrSnapshotCodec, v, resultCodecVersion)
	}
	// One allocation holds the result and its final schedule.
	rs := &struct {
		r     Result
		final sched.Schedule
	}{}
	r := &rs.r
	r.Attempts = int(d.uvarint())
	r.IntegerVars = int(d.uvarint())
	r.MILPNodes = int(d.uvarint())

	r.OracleStats.Backend = d.string()
	r.OracleStats.Nodes = int(d.uvarint())
	r.OracleStats.Pivots = int(d.uvarint())
	r.OracleStats.States = int64(d.uvarint())
	r.OracleStats.Raced = int(d.uvarint())
	r.OracleStats.LoserNodes = int(d.uvarint())
	r.OracleStats.LoserStates = int64(d.uvarint())
	r.OracleStats.LoserTime = time.Duration(d.uvarint())
	for range 3 { // retired worker-lane counters
		d.uvarint()
	}

	r.PlaceStats.MachinesUsed = int(d.uvarint())
	r.PlaceStats.EmptySlots = int(d.uvarint())
	r.PlaceStats.XConflicts = int(d.uvarint())
	r.PlaceStats.SwapRepairs = int(d.uvarint())
	r.PlaceStats.OriginMoves = int(d.uvarint())
	r.PlaceStats.GenericMoves = int(d.uvarint())
	r.LiftStats.MediumInserted = int(d.uvarint())
	r.LiftStats.MachineCap = int(d.uvarint())
	r.LiftStats.FillerSwaps = int(d.uvarint())
	r.LiftStats.FallbackMoves = int(d.uvarint())

	// A count beyond the sanity bounds marks a corrupt payload; the
	// importer skips the entry.
	count := func(what string, limit uint64) int {
		n := d.uvarint()
		if n > limit {
			d.fail("implausible %s %d", what, n)
		}
		return int(n)
	}
	shape := d.byte()
	r.Parts = Parts(shape & (hasFinal - 1))
	if r.Parts&PartInfo != 0 {
		r.K = int(d.uvarint())
		r.Q = int(d.uvarint())
		r.BPrime = int(d.uvarint())
		r.PriorityBags = count("priority count", maxSnapshotJobs)
	}
	if r.Parts&PartSpace != 0 {
		r.Patterns = count("pattern count", maxSnapshotPatterns)
	}
	if r.Parts&PartRelInfo != 0 {
		r.K = count("size count", maxSnapshotJobs)
	}
	if r.Parts&PartRelSpace != 0 {
		r.Patterns = count("related pattern count", maxSnapshotPatterns)
	}
	if shape&hasFinal != 0 {
		n := d.uvarint()
		if n > maxSnapshotJobs {
			return nil, fmt.Errorf("%w: implausible job count %d", ErrSnapshotCodec, n)
		}
		machine := make([]int, n)
		for i := range machine {
			machine[i] = int(d.varint())
		}
		// Inst is deliberately nil: a cache hit binds the schedule to
		// the requesting instance, and the producing instance never
		// crosses the memo boundary.
		rs.final.Machine = machine
		r.Final = &rs.final
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCodec, len(d.buf)-d.off)
	}
	return r, nil
}

func putUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func putVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func putString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder reads the payload with sticky error state; every accessor
// returns the zero value once an error is latched, so call sites stay
// linear.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrSnapshotCodec}, args...)...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<16 || d.off+int(n) > len(d.buf) {
		d.fail("bad string length %d at byte %d", n, d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}
