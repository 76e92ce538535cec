// Package bench provides the small harness the experiment driver
// (cmd/sbgt-bench) uses to time kernels, sweep parameters, and print the
// tables that correspond to the paper's evaluation artifacts.
//
// Output discipline: every experiment prints (a) a human-readable aligned
// table to stdout and (b) optionally the same rows as CSV, so EXPERIMENTS.md
// can quote results verbatim and plots can be regenerated elsewhere.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Timing summarizes repeated measurements of one operation.
type Timing struct {
	Reps int
	Min  time.Duration
	Mean time.Duration
	Max  time.Duration
}

// Measure runs fn reps times (after warmup unmeasured runs) and collects
// min/mean/max wall time. It panics if reps < 1 — a bench config error.
func Measure(reps, warmup int, fn func()) Timing {
	if reps < 1 {
		panic("bench: reps < 1")
	}
	for i := 0; i < warmup; i++ {
		fn()
	}
	t := Timing{Reps: reps, Min: time.Duration(1<<63 - 1)}
	var total time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		d := time.Since(start)
		total += d
		if d < t.Min {
			t.Min = d
		}
		if d > t.Max {
			t.Max = d
		}
	}
	t.Mean = total / time.Duration(reps)
	return t
}

// Speedup returns base/target as a multiplicative factor (how many times
// faster target is than base). Zero target durations yield +Inf semantics
// clamped to a large sentinel to keep tables printable.
func Speedup(base, target time.Duration) float64 {
	if target <= 0 {
		return 1e9
	}
	return float64(base) / float64(target)
}

// Efficiency returns the parallel efficiency of a scaled run: speedup
// divided by the resource ratio.
func Efficiency(speedup float64, workers, baseWorkers int) float64 {
	if workers <= 0 || baseWorkers <= 0 {
		return 0
	}
	return speedup / (float64(workers) / float64(baseWorkers))
}

// Table accumulates rows and prints them aligned. It is deliberately tiny:
// fixed header, %v-rendered cells, column-width autosizing.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column names.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends one row; cells are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// WriteTo renders the aligned table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteCSV renders the table as CSV (header + rows). Cells containing
// commas or quotes are quoted per RFC 4180.
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, cell := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, cell); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}
