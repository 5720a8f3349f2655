package scenario

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Kind is a column's value type.
type Kind int

const (
	// String cells hold labels (scheduler names, workload keys).
	String Kind = iota
	// Int cells hold counts and classes.
	Int
	// Float cells hold measurements, serialised with the repo-wide
	// canonical float format ('g', 10 significant digits).
	Float
)

// Column is one typed column of a Table.
type Column struct {
	Name string
	Kind Kind
}

// StrCol, IntCol and FloatCol build columns of the respective kinds.
func StrCol(name string) Column   { return Column{Name: name, Kind: String} }
func IntCol(name string) Column   { return Column{Name: name, Kind: Int} }
func FloatCol(name string) Column { return Column{Name: name, Kind: Float} }

// Table is a scenario's uniform plottable result: named, typed columns
// over formatted rows. Name is the CSV file stem (e.g. "fig2_smt").
type Table struct {
	Name    string
	Columns []Column
	// Rows hold the canonical cell strings (the exact CSV field bytes).
	Rows [][]string
}

// NewTable returns an empty table over the given columns.
func NewTable(name string, cols ...Column) *Table {
	return &Table{Name: name, Columns: cols}
}

// FormatFloat is the canonical float-to-CSV serialisation shared by every
// table ('g', 10 significant digits, 64-bit) — the byte contract the
// golden files pin.
func FormatFloat(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// Add appends one row. Values must match the column kinds (string, int,
// float64); a mismatch panics, because rows are appended by scenario code
// whose shape is fixed at compile time.
func (t *Table) Add(vals ...any) {
	if len(vals) != len(t.Columns) {
		panic(fmt.Sprintf("scenario: table %s: %d values for %d columns", t.Name, len(vals), len(t.Columns)))
	}
	row := make([]string, len(vals))
	for i, v := range vals {
		c := t.Columns[i]
		switch c.Kind {
		case String:
			s, ok := v.(string)
			if !ok {
				panic(fmt.Sprintf("scenario: table %s column %s wants string, got %T", t.Name, c.Name, v))
			}
			row[i] = s
		case Int:
			n, ok := v.(int)
			if !ok {
				panic(fmt.Sprintf("scenario: table %s column %s wants int, got %T", t.Name, c.Name, v))
			}
			row[i] = strconv.Itoa(n)
		case Float:
			f, ok := v.(float64)
			if !ok {
				panic(fmt.Sprintf("scenario: table %s column %s wants float64, got %T", t.Name, c.Name, v))
			}
			row[i] = FormatFloat(f)
		default:
			panic(fmt.Sprintf("scenario: table %s column %s has unknown kind %d", t.Name, c.Name, c.Kind))
		}
	}
	t.Rows = append(t.Rows, row)
}

// header returns the CSV header row.
func (t *Table) header() []string {
	h := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		h[i] = c.Name
	}
	return h
}

// WriteFile saves the table as dir/<Name>.csv (creating dir if needed):
// one header row, then the data rows, RFC-4180 via encoding/csv. The
// file is written to a temp name and renamed into place, so readers
// (and interrupted runs) never observe a partially written CSV.
func (t *Table) WriteFile(dir string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, t.Name+".csv")
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := csv.NewWriter(f)
	if err := w.Write(t.header()); err != nil {
		return err
	}
	if err := w.WriteAll(t.Rows); err != nil {
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Text renders the table as aligned monospace columns for reports:
// left-aligned strings, right-aligned numbers, two-space gutters.
func (t *Table) Text() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c.Name)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	put := func(row []string) {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := width[i] - len(cell)
			if t.Columns[i].Kind == String {
				b.WriteString(cell)
				if i < len(row)-1 {
					b.WriteString(strings.Repeat(" ", pad))
				}
			} else {
				b.WriteString(strings.Repeat(" ", pad))
				b.WriteString(cell)
			}
		}
		b.WriteString("\n")
	}
	put(t.header())
	for _, row := range t.Rows {
		put(row)
	}
	return b.String()
}
