// Cost-model snapshots: a versioned JSON document so a model can
// persist across restarts and ship to warm replicas alongside the memo
// snapshot (`bagsched serve -plan-snapshot`).
package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// SnapshotFormat is the snapshot document version this package writes
// and the only one it reads.
const SnapshotFormat = 1

type snapshotDoc struct {
	Format       int        `json:"format"`
	Version      uint64     `json:"version"`
	Observations uint64     `json:"observations"`
	Cells        []snapCell `json:"cells"`
}

type snapCell struct {
	Key
	MeanUS float64 `json:"mean_us"`
	Count  uint64  `json:"count"`
}

// Export writes the model as a stable JSON snapshot: cells in sorted
// key order, so equal models export byte-identical documents.
func (m *Model) Export(w io.Writer) error {
	m.mu.RLock()
	doc := snapshotDoc{Format: SnapshotFormat, Version: m.version, Observations: m.observations}
	for k, c := range m.cells {
		doc.Cells = append(doc.Cells, snapCell{Key: k, MeanUS: c.meanUS, Count: c.count})
	}
	m.mu.RUnlock()
	sort.Slice(doc.Cells, func(i, j int) bool { return doc.Cells[i].less(doc.Cells[j].Key) })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("plan: export: %w", err)
	}
	return nil
}

func (k Key) less(o Key) bool {
	switch {
	case k.Family != o.Family:
		return k.Family < o.Family
	case k.Size != o.Size:
		return k.Size < o.Size
	case k.Rung != o.Rung:
		return k.Rung < o.Rung
	case k.EpsIdx != o.EpsIdx:
		return k.EpsIdx < o.EpsIdx
	default:
		return k.Backend < o.Backend
	}
}

// maxMeanUS bounds a cell's mean: Predict converts it to a Duration in
// nanoseconds, which must not overflow. The constant rounds up to the
// next float64, and no float64 lies strictly between it and the exact
// quotient, so "< maxMeanUS" admits exactly the means <= MaxInt64/1000.
const maxMeanUS = float64(math.MaxInt64 / 1000)

// Import merges a snapshot into the model: cells the model has not
// observed yet are adopted verbatim, cells it has are kept (live
// observations beat shipped history). The model version advances so
// post-import decisions are distinguishable from pre-import ones.
// Unknown fields are ignored, so older snapshots import. A document
// followed by anything but whitespace, a cell whose mean is negative or
// too large for a Duration, or counts whose total overflows is rejected
// whole, and the model is left unchanged.
func (m *Model) Import(r io.Reader) error {
	var doc snapshotDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("plan: import: %w", err)
	}
	rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), r))
	if err != nil {
		return fmt.Errorf("plan: import: %w", err)
	}
	if len(bytes.Trim(rest, " \t\r\n")) != 0 {
		return fmt.Errorf("plan: import: trailing data after the snapshot document")
	}
	if doc.Format != SnapshotFormat {
		return fmt.Errorf("plan: import: unsupported snapshot format %d (want %d)", doc.Format, SnapshotFormat)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	adopt := make(map[Key]*cell, len(doc.Cells))
	total := m.observations
	for i, sc := range doc.Cells {
		if !(sc.MeanUS >= 0 && sc.MeanUS < maxMeanUS) {
			return fmt.Errorf("plan: import: cell %d: mean_us %g outside [0, %d]", i, sc.MeanUS, int64(math.MaxInt64/1000))
		}
		k := sc.Key.Normalize()
		if _, exists := m.cells[k]; exists || sc.Count == 0 {
			continue
		}
		if _, dup := adopt[k]; dup {
			continue
		}
		if total+sc.Count < total {
			return fmt.Errorf("plan: import: cell %d: observation total overflows", i)
		}
		total += sc.Count
		adopt[k] = &cell{meanUS: sc.MeanUS, count: sc.Count}
	}
	for k, c := range adopt {
		m.cells[k] = c
	}
	m.observations = total
	m.version++
	return nil
}
