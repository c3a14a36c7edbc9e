package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// instanceJSON is the wire format for instances.
type instanceJSON struct {
	Machines int       `json:"machines"`
	NumBags  int       `json:"num_bags"`
	Speeds   []float64 `json:"speeds,omitempty"`
	Jobs     []jobJSON `json:"jobs"`
}

type jobJSON struct {
	ID   int     `json:"id"`
	Size float64 `json:"size"`
	Bag  int     `json:"bag"`
}

// MarshalJSON encodes the instance in a stable, self-describing format.
func (in *Instance) MarshalJSON() ([]byte, error) {
	w := instanceJSON{Machines: in.Machines, NumBags: in.NumBags, Speeds: in.Speeds, Jobs: make([]jobJSON, len(in.Jobs))}
	for i, j := range in.Jobs {
		w.Jobs[i] = jobJSON{ID: int(j.ID), Size: j.Size, Bag: j.Bag}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes an instance and validates it. A canonical
// document (see decodeCanonical) is decoded in one pass; every other
// input goes to the encoding/json reference decoder, decodeReference.
func (in *Instance) UnmarshalJSON(data []byte) error {
	dec, ok := decodeCanonical(data)
	if !ok {
		var err error
		if dec, err = decodeReference(data); err != nil {
			return err
		}
	}
	*in = dec
	return in.Validate()
}

// errTrailingData reports an instance document followed by more input.
var errTrailingData = errors.New("sched: trailing data after instance")

// decodeReference decodes an instance document with encoding/json.
// Unknown fields and trailing data are errors: an instance nested in a
// strictly decoded request body is held to the same standard as the
// body, so a misspelled "speeds" fails instead of silently solving an
// identical-machines instance.
func decodeReference(data []byte) (Instance, error) {
	var w instanceJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return Instance{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Instance{}, errTrailingData
	}
	in := Instance{Machines: w.Machines, NumBags: w.NumBags, Speeds: w.Speeds, Jobs: make([]Job, len(w.Jobs))}
	for i, j := range w.Jobs {
		in.Jobs[i] = Job{ID: JobID(j.ID), Size: j.Size, Bag: j.Bag}
	}
	extendBags(&in)
	return in, nil
}

// ReadInstance decodes a JSON instance from r.
func ReadInstance(r io.Reader) (*Instance, error) {
	var in Instance
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("sched: decoding instance: %w", err)
	}
	return &in, nil
}

// ReadDelta decodes a JSON delta from r — the same document the wire
// layer's "delta" field carries. Unknown fields are errors, so a typo'd
// edit kind fails loudly instead of silently changing nothing.
func ReadDelta(r io.Reader) (*Delta, error) {
	var d Delta
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("sched: decoding delta: %w", err)
	}
	return &d, nil
}

// WriteInstance encodes the instance as indented JSON to w.
func WriteInstance(w io.Writer, in *Instance) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(in)
}

// scheduleJSON is the wire format for schedules.
type scheduleJSON struct {
	Machines   int       `json:"machines"`
	Assignment []int     `json:"assignment"`
	Makespan   float64   `json:"makespan"`
	Loads      []float64 `json:"loads"`
}

// MarshalJSON encodes the schedule together with derived statistics.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	w := scheduleJSON{
		Machines:   s.Inst.Machines,
		Assignment: s.Machine,
		Makespan:   s.Makespan(),
		Loads:      s.Loads(),
	}
	return json.Marshal(w)
}

// WriteSchedule encodes the schedule as indented JSON to w.
func WriteSchedule(w io.Writer, s *Schedule) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Trace is a churn trace: a base instance plus an ordered stream of
// deltas — the replay unit of the incremental re-solve tests,
// benchmarks and the churn-replay driver. Committed traces live under
// testdata/churn_*.json (the churn_ prefix keeps them out of the
// plain-instance corpus globs).
type Trace struct {
	Base  *Instance `json:"base"`
	Steps []Delta   `json:"steps"`
}

// ReadTrace decodes a JSON churn trace from r. Unknown fields are
// errors; the base instance is validated and there must be at least one
// step.
func ReadTrace(r io.Reader) (*Trace, error) {
	var tr Trace
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("sched: decoding trace: %w", err)
	}
	if tr.Base == nil {
		return nil, fmt.Errorf("sched: trace has no base instance")
	}
	if len(tr.Steps) == 0 {
		return nil, fmt.Errorf("sched: trace has no steps")
	}
	return &tr, nil
}

// WriteTrace encodes the trace as indented JSON to w.
func WriteTrace(w io.Writer, tr *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}
