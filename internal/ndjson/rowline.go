// Package ndjson is the row line of the /v1/query NDJSON stream, both
// directions in one place: AppendString writes one cell as a JSON
// string literal, AppendRow a whole `["a","b"]\n` line of them, and
// Cells.DecodeRow reads a line back on the federated hop from a member
// that answers row lines rather than batch frames. The serving
// side writes its row lines with query.Batch.AppendRowJSON, which
// copies a stored column's cells from the literals its mirror encoded
// once with AppendString (table.Mirror.JSON) and
// encodes any other cell with AppendString as it goes. Header and
// trailer lines are JSON objects and stay with encoding/json at both
// ends; only the per-row line — the one that is written and parsed
// once per row — is hand-rolled, and it is pinned byte-for-byte to
// what encoding/json would produce and accept.
package ndjson

import (
	"encoding/json"
	"errors"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// plain marks the ASCII bytes json.Encoder copies through unescaped
// with its default HTML escaping on: everything printable except the
// quote, the backslash, and <, >, &.
var plain = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range []byte{'"', '\\', '<', '>', '&'} {
		t[b] = false
	}
	return t
}()

// AppendRow appends row as one NDJSON row line — a JSON array of
// strings and a newline — byte-identical to json.Encoder.Encode(row)
// for a non-nil row.
func AppendRow(dst []byte, row []string) []byte {
	dst = append(dst, '[')
	for j, cell := range row {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, cell)
	}
	return append(dst, ']', '\n')
}

// AppendString appends s as a JSON string literal with encoding/json's
// escaping: short escapes for \b \f \n \r \t, \u00XX for the other
// control bytes and for <, >, &, \u2028 and \u2029 for the line and
// paragraph separators, and \ufffd for each byte of invalid UTF-8.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if plain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ErrRowLine is returned by DecodeRow for a line that is not a JSON
// array of exactly the expected number of strings.
var ErrRowLine = errors.New("ndjson: malformed row line")

// Cells accumulates the decoded cells of consecutive row lines in one
// byte arena and hands them back column-major. A batch of rows costs
// two allocations however many cells it holds: one string for every
// cell's bytes, one []string for every column run.
type Cells struct {
	width int
	rows  int
	buf   []byte // decoded cell bytes, back to back, row-major
	ends  []int  // ends[k] is where cell k stops in buf
}

// NewCells returns an empty accumulator for rows of width cells.
func NewCells(width int) *Cells { return &Cells{width: width} }

// Rows reports how many rows have been decoded since the last Reset.
func (c *Cells) Rows() int { return c.rows }

// Reset forgets the accumulated rows and keeps the capacity.
func (c *Cells) Reset() { c.rows, c.buf, c.ends = 0, c.buf[:0], c.ends[:0] }

// DecodeRow scans one row line in a single pass and accumulates its
// cells. It accepts exactly the lines json.Unmarshal accepts as an
// array of width strings, and decodes them to the same values: a cell
// with no escape and valid UTF-8 is copied as it stands, anything else
// takes json.Unmarshal for that one cell. A rejected line leaves no
// trace in c.
func (c *Cells) DecodeRow(line []byte) error {
	nbuf, nends := len(c.buf), len(c.ends)
	if !c.scanRow(line) {
		c.buf, c.ends = c.buf[:nbuf], c.ends[:nends]
		return ErrRowLine
	}
	c.rows++
	return nil
}

func (c *Cells) scanRow(line []byte) bool {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '[' {
		return false
	}
	i = skipSpace(line, i+1)
	n := 0
	for ; i < len(line) && line[i] != ']'; n++ {
		if n > 0 {
			if line[i] != ',' {
				return false
			}
			i = skipSpace(line, i+1)
		}
		if i == len(line) || line[i] != '"' {
			return false
		}
		var ok bool
		if i, ok = c.scanString(line, i); !ok {
			return false
		}
		i = skipSpace(line, i)
	}
	// line[i], if there is one, is the closing bracket.
	return i < len(line) && n == c.width && skipSpace(line, i+1) == len(line)
}

// scanString decodes the string literal opening at line[open] into the
// arena and returns the index just past its closing quote.
func (c *Cells) scanString(line []byte, open int) (int, bool) {
	slow, high := false, false
	for i := open + 1; i < len(line); i++ {
		switch b := line[i]; {
		case b == '"':
			raw := line[open+1 : i]
			if slow || high && !utf8.Valid(raw) {
				var s string
				if json.Unmarshal(line[open:i+1], &s) != nil {
					return 0, false
				}
				c.buf = append(c.buf, s...)
			} else {
				c.buf = append(c.buf, raw...)
			}
			c.ends = append(c.ends, len(c.buf))
			return i + 1, true
		case b == '\\':
			slow = true
			i++ // whatever is escaped, it is not the closing quote
		case b < 0x20:
			return 0, false
		case b >= utf8.RuneSelf:
			high = true
		}
	}
	return 0, false
}

func skipSpace(line []byte, i int) int {
	for i < len(line) && (line[i] == ' ' || line[i] == '\n' || line[i] == '\r' || line[i] == '\t') {
		i++
	}
	return i
}

// Columns returns the accumulated rows column-major: run j holds cell
// j of every row, in row order. Every cell is a substring of one
// string, so the runs stay valid across Reset and further decoding.
func (c *Cells) Columns() [][]string {
	arena := string(c.buf)
	flat := make([]string, len(c.ends))
	cols := make([][]string, c.width)
	for j := range cols {
		cols[j] = flat[j*c.rows : (j+1)*c.rows : (j+1)*c.rows]
	}
	start, k := 0, 0
	for i := 0; i < c.rows; i++ {
		for j := range cols {
			cols[j][i] = arena[start:c.ends[k]]
			start = c.ends[k]
			k++
		}
	}
	return cols
}
