// Package experiments defines and implements the EX evaluation suite.
// The paper is a theory contribution with no experimental
// tables, so each experiment empirically verifies one theorem, lemma or
// figure of the paper on synthetic workloads; cmd/experiments regenerates
// every table and EXPERIMENTS.md records the results.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Config tunes the suite.
type Config struct {
	// Quick shrinks instance sizes and seed counts for fast runs.
	Quick bool
	// Seeds is the number of random seeds per cell (0 means default).
	Seeds int
}

func (c Config) seeds(def, quick int) int {
	if c.Seeds > 0 {
		return c.Seeds
	}
	if c.Quick {
		return quick
	}
	return def
}

// Table is one rendered experiment.
type Table struct {
	// ID is the experiment identifier (e.g. "T1").
	ID string
	// Title is a one-line description.
	Title string
	// Claim states the paper claim being verified.
	Claim string
	// Header and Rows hold the tabular results.
	Header []string
	Rows   [][]string
	// Notes hold free-form observations appended after the table.
	Notes []string
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## EX-%s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "*Claim:* %s\n\n", t.Claim)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		b.WriteString("\n" + n + "\n")
	}
	return b.String()
}

// Runner executes one experiment.
type Runner func(Config) (*Table, error)

// registry maps experiment ids to runners, populated by the per-topic
// files in this package.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs returns all experiment identifiers in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(cfg)
}

// formatting helpers shared by the experiment files.

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }
func d(x int) string      { return fmt.Sprintf("%d", x) }
func ms(sec float64) string {
	return fmt.Sprintf("%.1fms", sec*1000)
}
func yes(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
