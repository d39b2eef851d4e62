// Package table provides the tabular dataset model used throughout the
// lake: named columns of string-encoded cells with inferred types,
// column-level statistics, and CSV import/export.
//
// The surveyed discovery systems (JOSIE, D3L, Juneau) all
// operate on tables whose cells are treated either as sets of string
// tokens or as numeric samples; Table keeps the raw string encoding and
// exposes typed views on demand.
package table

import (
	"errors"
	"fmt"
	"strings"
)

// Kind is the inferred type of a column.
type Kind int

const (
	// KindUnknown marks a column whose type has not been inferred yet
	// or whose cells are all null.
	KindUnknown Kind = iota
	// KindString is free text.
	KindString
	// KindInt is integer-valued.
	KindInt
	// KindFloat is real-valued (includes integer cells mixed with reals).
	KindFloat
	// KindBool holds true/false values.
	KindBool
	// KindTime holds timestamps in a recognized layout.
	KindTime
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	default:
		return "unknown"
	}
}

// Numeric reports whether the kind is int or float.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Errors returned by table constructors and accessors.
var (
	ErrNoSuchColumn = errors.New("table: no such column")
	ErrRagged       = errors.New("table: ragged rows")
	ErrEmpty        = errors.New("table: empty input")
)

// Column is a named, typed sequence of string-encoded cells. Empty string
// cells are treated as nulls.
type Column struct {
	Name  string
	Kind  Kind
	Cells []string
}

// Len returns the number of cells (including nulls).
func (c *Column) Len() int { return len(c.Cells) }

// Profile is what one walk over a column finds: its distinct non-null
// values in first-seen order, how many of its cells are not null, and
// their mean length (0 when there are none).
type Profile struct {
	Distinct []string
	NonNull  int
	MeanLen  float64
}

// Profile walks the column once.
func (c *Column) Profile() Profile {
	seen := make(map[string]struct{}, len(c.Cells))
	p := Profile{Distinct: make([]string, 0, len(c.Cells))}
	total := 0
	for _, v := range c.Cells {
		if isNullToken(v) {
			continue
		}
		p.NonNull++
		total += len(v)
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			p.Distinct = append(p.Distinct, v)
		}
	}
	if p.NonNull > 0 {
		p.MeanLen = float64(total) / float64(p.NonNull)
	}
	return p
}

// Floats returns the numeric interpretation of all non-null cells,
// silently skipping unparseable cells. The second return value is the
// fraction of non-null cells that parsed as numbers.
func (c *Column) Floats() ([]float64, float64) {
	out := make([]float64, 0, len(c.Cells))
	nonNull := 0
	for _, v := range c.Cells {
		if isNullToken(v) {
			continue
		}
		nonNull++
		if f, ok := parseFloat(v); ok {
			out = append(out, f)
		}
	}
	if nonNull == 0 {
		return out, 0
	}
	return out, float64(len(out)) / float64(nonNull)
}

// IsKey reports whether the profiled column, of rows cells, is a
// candidate key: its non-null values are unique and cover at least
// minCoverage of the rows. Juneau uses this signal to detect
// primary-key / foreign-key candidates.
func (p Profile) IsKey(rows int, minCoverage float64) bool {
	if p.NonNull == 0 || len(p.Distinct) != p.NonNull {
		return false
	}
	return float64(p.NonNull)/float64(rows) >= minCoverage
}

// Table is a named collection of equally long columns.
type Table struct {
	Name    string
	Columns []*Column
	// Meta carries free-form descriptive metadata (source path,
	// creator, task description, ...). Keys are lowercase.
	Meta map[string]string
}

// New creates an empty table with the given name.
func New(name string) *Table {
	return &Table{Name: name, Meta: map[string]string{}}
}

// FromRows builds a table from a header and rows. All rows must have
// exactly len(header) fields. Column types are inferred.
func FromRows(name string, header []string, rows [][]string) (*Table, error) {
	if len(header) == 0 {
		return nil, ErrEmpty
	}
	t := New(name)
	for _, h := range header {
		t.Columns = append(t.Columns, &Column{Name: h})
	}
	for i, row := range rows {
		if len(row) != len(header) {
			return nil, fmt.Errorf("%w: row %d has %d fields, want %d", ErrRagged, i, len(row), len(header))
		}
		for j, v := range row {
			t.Columns[j].Cells = append(t.Columns[j].Cells, v)
		}
	}
	t.InferTypes()
	return t, nil
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Columns) }

// Column returns the column with the given name, or ErrNoSuchColumn.
func (t *Table) Column(name string) (*Column, error) {
	for _, c := range t.Columns {
		if c.Name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: %q in table %q", ErrNoSuchColumn, name, t.Name)
}

// ColumnNames returns the column names in order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

// Row materializes row i as a slice ordered like Columns.
func (t *Table) Row(i int) []string {
	row := make([]string, len(t.Columns))
	for j, c := range t.Columns {
		row[j] = c.Cells[i]
	}
	return row
}

// AppendRow appends one row; the field count must match the column count.
func (t *Table) AppendRow(row []string) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("%w: got %d fields, want %d", ErrRagged, len(row), len(t.Columns))
	}
	for j, v := range row {
		t.Columns[j].Cells = append(t.Columns[j].Cells, v)
	}
	return nil
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := New(t.Name)
	for k, v := range t.Meta {
		out.Meta[k] = v
	}
	for _, c := range t.Columns {
		cells := make([]string, len(c.Cells))
		copy(cells, c.Cells)
		out.Columns = append(out.Columns, &Column{Name: c.Name, Kind: c.Kind, Cells: cells})
	}
	return out
}

// InferTypes infers and sets the Kind of every column.
func (t *Table) InferTypes() {
	for _, c := range t.Columns {
		c.Kind = InferKind(c.Cells)
	}
}

// String renders a compact description such as "orders(5 cols, 120 rows)".
func (t *Table) String() string {
	return fmt.Sprintf("%s(%d cols, %d rows)", t.Name, t.NumCols(), t.NumRows())
}

// isNullToken reports whether v, spaces aside, is a value treated as
// missing data.
func isNullToken(v string) bool { return isTrimmedNull(strings.TrimSpace(v)) }

// isTrimmedNull is isNullToken of a cell already trimmed of spaces. (The
// switch compiles to a search by length first.)
func isTrimmedNull(s string) bool {
	switch s {
	case "", "null", "NULL", "na", "NA", "n/a", "N/A", "nil", "-":
		return true
	}
	return false
}
