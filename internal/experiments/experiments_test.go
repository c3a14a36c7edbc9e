package experiments

import (
	"strings"
	"testing"
)

func TestTableMarkdownRendering(t *testing.T) {
	tbl := &Table{
		ID:     "X0",
		Title:  "demo",
		Claim:  "a claim",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
		Notes:  []string{"note one"},
	}
	md := tbl.Markdown()
	for _, want := range []string{
		"## EX-X0 — demo",
		"*Claim:* a claim",
		"| a | b |",
		"| --- | --- |",
		"| 1 | 2 |",
		"note one",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"A1", "A2", "B1", "F1", "F2", "F3", "L1", "L11", "L6", "L7", "L8", "L9", "T1", "T2"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry has %v, want %v", got, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestConfigSeeds(t *testing.T) {
	if (Config{}).seeds(5, 2) != 5 {
		t.Error("default seeds wrong")
	}
	if (Config{Quick: true}).seeds(5, 2) != 2 {
		t.Error("quick seeds wrong")
	}
	if (Config{Seeds: 9}).seeds(5, 2) != 9 {
		t.Error("override seeds wrong")
	}
}

// TestQuickExperimentsRun executes the cheap experiments end to end in
// quick mode; the expensive ones (T1, T2, F1, B1) are covered by
// cmd/experiments runs and the benchmark harness.
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are not short")
	}
	for _, id := range []string{"F2", "F3", "L1", "L6", "L8"} {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, Config{Quick: true, Seeds: 1})
			if err != nil {
				t.Fatalf("experiment %s: %v", id, err)
			}
			if len(tbl.Rows) == 0 {
				t.Errorf("experiment %s produced no rows", id)
			}
			// Every boolean verdict column must be "yes".
			for _, row := range tbl.Rows {
				for _, cell := range row {
					if cell == "no" {
						t.Errorf("experiment %s has a failing verdict: %v", id, row)
					}
				}
			}
		})
	}
}
