// Package stats provides small numeric and formatting helpers for the
// experiment harness: aligned text tables and CSV output for the
// regenerated figures.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	CSVRow(w, t.header...)
	for _, r := range t.rows {
		CSVRow(w, r...)
	}
}

// CSVRow writes one CSV record: the cells joined by commas, each quoted
// when it holds a comma, a quote or a newline. Table.CSV writes every row
// with it; a caller with tens of thousands of rows streams them through it
// instead of holding them all in a Table.
func CSVRow(w io.Writer, cells ...string) {
	n := len(cells) // the commas and the newline
	for _, c := range cells {
		n += len(c)
	}
	line := make([]byte, 0, n)
	for i, c := range cells {
		if i > 0 {
			line = append(line, ',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		line = append(line, c...)
	}
	w.Write(append(line, '\n'))
}

// Mean returns the arithmetic mean of xs (zero for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MinMax returns the extremes of xs; it panics on an empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return
}
