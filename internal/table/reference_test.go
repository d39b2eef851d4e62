package table

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The inference and profiling code as it stood before ingest was made to
// do its work once, kept verbatim as the oracle the fuzz and property
// tests hold InferKind and Profile to: every cell through every parser,
// the null-token maps, one walk per profile field.

var refTimeLayouts = []string{
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02",
	"01/02/2006",
	"2006/01/02",
	time.RFC1123,
}

func refInferKind(cells []string) Kind {
	const tolerance = 0.95
	var nonNull, ints, floats, bools, times int
	for _, v := range cells {
		if refIsNullToken(v) {
			continue
		}
		nonNull++
		s := strings.TrimSpace(v)
		if _, err := strconv.ParseInt(s, 10, 64); err == nil {
			ints++
			floats++ // every int is a float
			continue
		}
		if _, err := strconv.ParseFloat(s, 64); err == nil {
			floats++
			continue
		}
		if refIsBoolToken(s) {
			bools++
			continue
		}
		if refParseTime(s) {
			times++
		}
	}
	if nonNull == 0 {
		return KindUnknown
	}
	frac := func(n int) float64 { return float64(n) / float64(nonNull) }
	switch {
	case frac(ints) >= tolerance:
		return KindInt
	case frac(floats) >= tolerance:
		return KindFloat
	case frac(bools) >= tolerance:
		return KindBool
	case frac(times) >= tolerance:
		return KindTime
	default:
		return KindString
	}
}

func refIsBoolToken(s string) bool {
	switch strings.ToLower(s) {
	case "true", "false", "yes", "no", "t", "f":
		return true
	}
	return false
}

func refParseTime(s string) bool {
	for _, layout := range refTimeLayouts {
		if _, err := time.Parse(layout, s); err == nil {
			return true
		}
	}
	return false
}

var refNullTokens = map[string]struct{}{
	"": {}, "null": {}, "NULL": {}, "na": {}, "NA": {}, "n/a": {}, "N/A": {}, "nil": {}, "-": {},
}

func refIsNullToken(v string) bool {
	_, ok := refNullTokens[v]
	if ok {
		return true
	}
	_, ok = refNullTokens[strings.TrimSpace(v)]
	return ok
}

func refNullCount(c *Column) int {
	n := 0
	for _, v := range c.Cells {
		if refIsNullToken(v) {
			n++
		}
	}
	return n
}

func refDistinct(c *Column) map[string]struct{} {
	set := make(map[string]struct{}, len(c.Cells))
	for _, v := range c.Cells {
		if !refIsNullToken(v) {
			set[v] = struct{}{}
		}
	}
	return set
}

func refMeanLen(c *Column) float64 {
	nonNull := c.Len() - refNullCount(c)
	if nonNull == 0 {
		return 0
	}
	total := 0
	for _, v := range c.Cells {
		if !refIsNullToken(v) {
			total += len(v)
		}
	}
	return float64(total) / float64(nonNull)
}

// refReadCSV is ReadCSV as it stood on encoding/csv, kept as the oracle
// FuzzReadCSV holds the in-place parser to: the same header, cells and
// kinds, or the same error.
func refReadCSV(name string, data []byte) (*Table, error) {
	data = bytes.TrimPrefix(data, []byte("\xef\xbb\xbf"))
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
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
			for _, h := range rec {
				t.Columns = append(t.Columns, &Column{Name: h})
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
