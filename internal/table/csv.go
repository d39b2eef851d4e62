package table

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// ReadCSV parses CSV content with a header row into a Table and infers
// column types. One leading UTF-8 byte-order mark (spreadsheet exports
// write one) is not part of the first column's name.
func ReadCSV(name string, data []byte) (*Table, error) {
	data = bytes.TrimPrefix(data, []byte("\xef\xbb\xbf"))
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1 // validate ourselves for a better error
	cr.ReuseRecord = true   // cells go straight into the columns
	t := New(name)
	for i := -1; ; i++ { // record -1 is the header
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: parse csv %q: %w", name, err)
		}
		if i < 0 {
			// Columns are sized once: the newline count bounds the rows
			// under the header, and so does a byte per cell whatever it
			// claims.
			rows := min(bytes.Count(data, []byte("\n")), len(data)/len(rec))
			for _, h := range rec {
				t.Columns = append(t.Columns, &Column{Name: h, Cells: make([]string, 0, rows)})
			}
		} else if err := t.AppendRow(rec); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	if len(t.Columns) == 0 {
		return nil, fmt.Errorf("table: csv %q: %w", name, ErrEmpty)
	}
	t.InferTypes()
	return t, nil
}

// ParseCSV parses an in-memory CSV string; convenient for tests and
// examples.
func ParseCSV(name, content string) (*Table, error) {
	return ReadCSV(name, []byte(content))
}

// WriteCSV serializes the table as CSV with a header row.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return fmt.Errorf("table: write csv header: %w", err)
	}
	for i := 0; i < t.NumRows(); i++ {
		if err := cw.Write(t.Row(i)); err != nil {
			return fmt.Errorf("table: write csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ToCSV renders the table as a CSV string.
func ToCSV(t *Table) string {
	var sb strings.Builder
	_ = WriteCSV(t, &sb)
	return sb.String()
}
