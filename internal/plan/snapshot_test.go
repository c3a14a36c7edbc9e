package plan

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// parentCell is one cell as snapshots written while the cost model was
// keyed by oracle lane count carry it: with a "workers" field.
const parentCell = `{"family":"bags","size":5,"rung":"eptas","eps_idx":2,"backend":"bnb","workers":1,"mean_us":%s,"count":%s}`

func snapshotDocOf(cells ...string) string {
	return `{"format":1,"version":3,"observations":3,"cells":[` + strings.Join(cells, ",") + `]}`
}

func cellOf(mean, count string) string { return fmt.Sprintf(parentCell, mean, count) }

// TestImportRejectsPoisonedCells: a document with a negative mean, a
// mean whose Duration overflows, an overflowing observation total or
// trailing data is rejected whole and leaves the model unchanged (a
// prediction of zero or less would make every rung fit any deadline),
// while a well-formed document in the older format with "workers" and
// trailing whitespace imports.
func TestImportRejectsPoisonedCells(t *testing.T) {
	good := snapshotDocOf(cellOf("5000", "3"))
	cases := []struct {
		name string
		doc  string
		ok   bool
	}{
		{"negative mean", snapshotDocOf(cellOf("5000", "1"), cellOf("-5000", "1")), false},
		{"mean overflows a Duration", snapshotDocOf(cellOf("1e30", "1")), false},
		{"mean one past the bound", snapshotDocOf(cellOf("9223372036854776", "1")), false},
		{"observation total overflows", snapshotDocOf(cellOf("1", "18446744073709551615"),
			strings.Replace(cellOf("1", "1"), `"size":5`, `"size":6`, 1)), false},
		{"trailing data", good + "garbage", false},
		{"second document", good + good, false},
		{"older format, trailing whitespace", good + "\n \t\r\n", true},
		{"largest mean", snapshotDocOf(cellOf("9223372036854774", "1")), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := frozen()
			var before bytes.Buffer
			if err := m.Export(&before); err != nil {
				t.Fatal(err)
			}
			err := m.Import(strings.NewReader(tc.doc))
			if tc.ok {
				if err != nil {
					t.Fatalf("import: %v", err)
				}
				k := Key{Family: "bags", Size: 5, Rung: RungEPTAS, EpsIdx: 2, Backend: "bnb"}
				if pred, known := m.Predict(k); !known || pred < 0 {
					t.Fatalf("imported cell predicts %v (known %v)", pred, known)
				}
				return
			}
			if err == nil {
				t.Fatal("import accepted a poisoned document")
			}
			var after bytes.Buffer
			if err := m.Export(&after); err != nil {
				t.Fatal(err)
			}
			if after.String() != before.String() {
				t.Fatalf("rejected import changed the model:\n%s\nwant\n%s", after.String(), before.String())
			}
		})
	}
}

// FuzzPlanImport feeds arbitrary documents to Import: it never panics,
// an accepted document never makes a prediction negative, and whatever
// a model holds survives Export, Import into a fresh model, Export byte
// for byte.
func FuzzPlanImport(f *testing.F) {
	var real bytes.Buffer
	if err := frozen().Export(&real); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	f.Add([]byte(snapshotDocOf(cellOf("5000", "3"))))
	f.Add([]byte(snapshotDocOf(cellOf("-5000", "1"))))
	f.Add([]byte(snapshotDocOf(cellOf("1e30", "1"))))
	f.Add([]byte(snapshotDocOf(cellOf("5000", "3")) + "garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewModel()
		if err := m.Import(bytes.NewReader(data)); err != nil {
			return
		}
		for k := range m.cells {
			for _, probe := range []Key{k, {Family: k.Family, Size: k.Size + 1, Rung: k.Rung, EpsIdx: k.EpsIdx + 1, Backend: k.Backend}} {
				if pred, _ := m.Predict(probe); pred < 0 {
					t.Fatalf("Predict(%+v) = %v after an accepted import", probe, pred)
				}
			}
		}
		if d, err := m.Decide(Request{Family: "bags", Jobs: 24, Machines: 8, Eps: 0.3, Budget: time.Second}); err == nil && d.Predicted < 0 {
			t.Fatalf("Decide predicted %v after an accepted import", d.Predicted)
		}
		var first bytes.Buffer
		if err := m.Export(&first); err != nil {
			t.Fatal(err)
		}
		fresh := NewModel()
		if err := fresh.Import(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("re-import of an export: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := fresh.Export(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export round trip changed the document:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}
