package table

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// byteOrderMark is the UTF-8 byte-order mark spreadsheet exports write.
const byteOrderMark = "\xef\xbb\xbf"

// ReadCSV parses CSV content with a header row into a Table and infers
// column types. One leading UTF-8 byte-order mark (spreadsheet exports
// write one) is not part of the first column's name. The body is copied
// into one string, which the cells are cut from.
func ReadCSV(name string, data []byte) (*Table, error) {
	return parseCSV(name, string(bytes.TrimPrefix(data, []byte(byteOrderMark))))
}

// ParseCSV parses an in-memory CSV string as ReadCSV does, cutting the
// cells from content itself.
func ParseCSV(name, content string) (*Table, error) {
	return parseCSV(name, strings.TrimPrefix(content, byteOrderMark))
}

func parseCSV(name, s string) (*Table, error) {
	r := csvReader{s: s}
	var rec []string
	t := New(name)
	for i := -1; ; i++ { // record -1 is the header
		var err error
		rec, err = r.read(rec[:0])
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
			rows := min(strings.Count(s, "\n"), len(s)/len(rec))
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

// csvReader reads the records of s as encoding/csv's Reader does with
// FieldsPerRecord = -1: blank lines are skipped, a \r\n ends a line as
// \n does (inside a quoted cell too), one \r before the end of s is
// dropped, and a malformed record is the same *csv.ParseError. A cell
// is a substring of s unless it is quoted and holds a "" or a line
// break; such a cell is built in buf and costs one allocation.
type csvReader struct {
	s       string
	off     int // offset of the first unread line
	numLine int // lines read so far
	buf     []byte
}

// readLine returns the next line without its line break, and whether
// it had one. At the end of s it returns "", false.
func (r *csvReader) readLine() (line string, nl bool) {
	r.numLine++
	rest := r.s[r.off:]
	i := strings.IndexByte(rest, '\n')
	if i < 0 {
		r.off = len(r.s)
		return strings.TrimSuffix(rest, "\r"), false
	}
	r.off += i + 1
	return strings.TrimSuffix(rest[:i], "\r"), true
}

// read appends the cells of the next record to rec; at the end of s it
// returns io.EOF.
func (r *csvReader) read(rec []string) ([]string, error) {
	var line string
	var nl bool
	for line == "" {
		if r.off >= len(r.s) {
			return rec, io.EOF
		}
		line, nl = r.readLine()
	}
	if strings.IndexByte(line, '"') >= 0 {
		return r.readQuoted(rec, line, nl)
	}
	for {
		i := strings.IndexByte(line, ',')
		if i < 0 {
			return append(rec, line), nil
		}
		rec = append(rec, line[:i])
		line = line[i+1:]
	}
}

// readQuoted reads a record whose first line holds a quote, following
// encoding/csv's readRecord step for step so that errors carry its
// lines and columns.
func (r *csvReader) readQuoted(rec []string, line string, nl bool) ([]string, error) {
	recLine := r.numLine
	posLine, col := recLine, 1
	for {
		if line == "" || line[0] != '"' {
			cell := line
			i := strings.IndexByte(line, ',')
			if i >= 0 {
				cell = line[:i]
			}
			if j := strings.IndexByte(cell, '"'); j >= 0 {
				return rec, &csv.ParseError{StartLine: recLine, Line: r.numLine, Column: col + j, Err: csv.ErrBareQuote}
			}
			rec = append(rec, cell)
			if i < 0 {
				return rec, nil
			}
			line = line[i+1:]
			col += i + 1
			continue
		}
		line = line[1:]
		col++
		// inBuf: the cell so far is in buf, not one substring of s.
		inBuf := false
		r.buf = r.buf[:0]
		for {
			i := strings.IndexByte(line, '"')
			if i < 0 {
				if line == "" && !nl {
					return rec, &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
				}
				// The cell goes on past the line break.
				r.buf = append(r.buf, line...)
				col += len(line)
				if nl {
					r.buf = append(r.buf, '\n')
					col++
				}
				inBuf = true
				if line, nl = r.readLine(); line != "" || nl {
					posLine++
					col = 1
				}
				continue
			}
			part := line[:i]
			line = line[i+1:]
			col += i + 1
			if line != "" && line[0] == '"' { // "" is one quote
				r.buf = append(append(r.buf, part...), '"')
				inBuf = true
				line = line[1:]
				col++
				continue
			}
			if line != "" && line[0] != ',' {
				return rec, &csv.ParseError{StartLine: recLine, Line: r.numLine, Column: col - 1, Err: csv.ErrQuote}
			}
			if inBuf {
				part = string(append(r.buf, part...))
			}
			rec = append(rec, part)
			if line == "" {
				return rec, nil
			}
			line = line[1:]
			col++
			break
		}
	}
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
