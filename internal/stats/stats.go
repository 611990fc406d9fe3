// Package stats provides the measurement plumbing for the NeSC reproduction:
// latency samplers, throughput accounting, and tabular series that the
// benchmark harness renders as the paper's figures and tables.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sampler accumulates scalar samples (latencies in microseconds, counts,
// ratios) and answers summary statistics.
type Sampler struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Add records one sample.
func (s *Sampler) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sorted = false
	s.sum += v
}

// Merge folds every sample of o into s. o is unchanged; merging s into
// itself doubles its contents. Summary statistics after a merge are
// identical to having Added both sample streams into one Sampler, in any
// interleaving.
func (s *Sampler) Merge(o *Sampler) {
	if o == nil || len(o.samples) == 0 {
		return
	}
	s.samples = append(s.samples, o.samples...)
	s.sorted = false
	s.sum += o.sum
}

// N reports the number of samples.
func (s *Sampler) N() int { return len(s.samples) }

// Sum reports the sample total.
func (s *Sampler) Sum() float64 { return s.sum }

// Mean reports the arithmetic mean (0 when empty).
func (s *Sampler) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Min reports the smallest sample (0 when empty).
func (s *Sampler) Min() float64 {
	s.ensureSorted()
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[0]
}

// Max reports the largest sample (0 when empty).
func (s *Sampler) Max() float64 {
	s.ensureSorted()
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[len(s.samples)-1]
}

// Percentile reports the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation. Returns 0 when empty.
func (s *Sampler) Percentile(p float64) float64 {
	s.ensureSorted()
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.samples[lo]
	}
	frac := rank - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// Median reports the 50th percentile.
func (s *Sampler) Median() float64 { return s.Percentile(50) }

// Stddev reports the population standard deviation.
func (s *Sampler) Stddev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

func (s *Sampler) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// Ratio is a hit/miss style two-way counter.
type Ratio struct{ Hits, Misses int64 }

// Hit records a hit.
func (r *Ratio) Hit() { r.Hits++ }

// Miss records a miss.
func (r *Ratio) Miss() { r.Misses++ }

// Total reports hits+misses.
func (r *Ratio) Total() int64 { return r.Hits + r.Misses }

// Rate reports hits/(hits+misses), 0 when empty.
func (r *Ratio) Rate() float64 {
	t := r.Total()
	if t == 0 {
		return 0
	}
	return float64(r.Hits) / float64(t)
}

// Table is a labelled grid of numeric cells used to render figure series and
// paper tables. Rows are keyed by an X label (e.g. a block size); columns by
// a series name (e.g. "NeSC", "virtio").
type Table struct {
	Title   string
	XLabel  string
	Columns []string
	rows    []*Row
	byX     map[string]*Row
	// Unit annotates cell values ("MB/s", "us", "x").
	Unit string
	// Notes holds free-form annotations printed under the table.
	Notes []string
}

// Row is one X-labelled row of cells.
type Row struct {
	X     string
	cells map[string]float64
}

// NewTable returns an empty table with the given title, x-axis label, value
// unit, and column order.
func NewTable(title, xLabel, unit string, columns ...string) *Table {
	return &Table{
		Title:   title,
		XLabel:  xLabel,
		Unit:    unit,
		Columns: columns,
		byX:     make(map[string]*Row),
	}
}

// Set stores a cell, creating the row and/or column as needed.
func (t *Table) Set(x, column string, v float64) {
	row, ok := t.byX[x]
	if !ok {
		row = &Row{X: x, cells: make(map[string]float64)}
		t.byX[x] = row
		t.rows = append(t.rows, row)
	}
	if !t.hasColumn(column) {
		t.Columns = append(t.Columns, column)
	}
	row.cells[column] = v
}

// SetRow stores one row's cells in the table's declared column order — the
// form an experiment's harvest takes. A value that is not finite (a ratio
// whose denominator was zero) leaves its cell empty. A count that does not
// match the columns is a harness bug and panics.
func (t *Table) SetRow(x string, vals ...float64) {
	if len(vals) != len(t.Columns) {
		panic(fmt.Sprintf("stats: table %q has %d columns, row %q has %d values", t.Title, len(t.Columns), x, len(vals)))
	}
	for i, v := range vals {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			t.Set(x, t.Columns[i], v)
		}
	}
}

// Get reads a cell, reporting whether it exists.
func (t *Table) Get(x, column string) (float64, bool) {
	row, ok := t.byX[x]
	if !ok {
		return 0, false
	}
	v, ok := row.cells[column]
	return v, ok
}

// MustGet reads a cell and panics when absent — experiment code treats a
// missing cell as a harness bug.
func (t *Table) MustGet(x, column string) float64 {
	v, ok := t.Get(x, column)
	if !ok {
		panic(fmt.Sprintf("stats: table %q has no cell (%q, %q)", t.Title, x, column))
	}
	return v
}

// Rows reports the row labels in insertion order.
func (t *Table) Rows() []string {
	out := make([]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = r.X
	}
	return out
}

// Note appends an annotation line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func (t *Table) hasColumn(c string) bool {
	for _, have := range t.Columns {
		if have == c {
			return true
		}
	}
	return false
}

// String renders the table as aligned text, the form printed by nescbench.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s", t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&b, " [%s]", t.Unit)
	}
	b.WriteString(" ==\n")

	widths := make([]int, len(t.Columns)+1)
	widths[0] = len(t.XLabel)
	for _, r := range t.rows {
		if len(r.X) > widths[0] {
			widths[0] = len(r.X)
		}
	}
	cells := make([][]string, len(t.rows))
	for i, r := range t.rows {
		cells[i] = make([]string, len(t.Columns))
		for j, c := range t.Columns {
			v, ok := r.cells[c]
			s := "-"
			if ok {
				s = formatCell(v)
			}
			cells[i][j] = s
			if len(s) > widths[j+1] {
				widths[j+1] = len(s)
			}
		}
	}
	for j, c := range t.Columns {
		if len(c) > widths[j+1] {
			widths[j+1] = len(c)
		}
	}

	fmt.Fprintf(&b, "%-*s", widths[0], t.XLabel)
	for j, c := range t.Columns {
		fmt.Fprintf(&b, "  %*s", widths[j+1], c)
	}
	b.WriteByte('\n')
	for i := range t.rows {
		fmt.Fprintf(&b, "%-*s", widths[0], t.rows[i].X)
		for j := range t.Columns {
			fmt.Fprintf(&b, "  %*s", widths[j+1], cells[i][j])
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header row first).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(t.XLabel))
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(csvEscape(r.X))
		for _, c := range t.Columns {
			b.WriteByte(',')
			if v, ok := r.cells[c]; ok {
				b.WriteString(formatCell(v))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// jsonTable is the machine-readable form of a Table. Cells are keyed by
// column name; absent cells are omitted rather than zeroed.
type jsonTable struct {
	Title   string    `json:"title"`
	XLabel  string    `json:"x_label"`
	Unit    string    `json:"unit,omitempty"`
	Columns []string  `json:"columns"`
	Rows    []jsonRow `json:"rows"`
	Notes   []string  `json:"notes,omitempty"`
}

type jsonRow struct {
	X     string             `json:"x"`
	Cells map[string]float64 `json:"cells"`
}

// JSON renders the table as an indented JSON document (trailing newline
// included), the form nescbench writes into results/.
func (t *Table) JSON() ([]byte, error) {
	jt := jsonTable{
		Title:   t.Title,
		XLabel:  t.XLabel,
		Unit:    t.Unit,
		Columns: append([]string(nil), t.Columns...),
		Notes:   append([]string(nil), t.Notes...),
	}
	for _, r := range t.rows {
		cells := make(map[string]float64, len(r.cells))
		for c, v := range r.cells {
			cells[c] = v
		}
		jt.Rows = append(jt.Rows, jsonRow{X: r.X, Cells: cells})
	}
	b, err := json.MarshalIndent(jt, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func formatCell(v float64) string {
	av := math.Abs(v)
	switch {
	case v == math.Trunc(v) && av < 1e9:
		return fmt.Sprintf("%.0f", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
