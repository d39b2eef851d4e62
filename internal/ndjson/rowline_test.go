package ndjson

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// hostile is what a cell may hold that the escaper has a rule for.
var hostile = []string{
	"", "plain", `quote " backslash \`, "<script>&amp;</script>",
	"line\u2028para\u2029sep", "\x00\x01\x08\x0c\n\r\t\x1f\x7f",
	"caf\u00e9 \u65e5\u672c \U0001F600", "bad \xff\xfe utf8", "cut \xe2\x80", "\xed\xa0\x80 surrogate bytes",
}

// wantLine is the oracle: what encoding/json writes for the row.
func wantLine(t testing.TB, row []string) []byte {
	t.Helper()
	want, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

func TestAppendRowMatchesEncodingJSON(t *testing.T) {
	rows := [][]string{{}, {""}, hostile}
	for _, h := range hostile {
		rows = append(rows, []string{h}, []string{"a", h, "z"})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, row := range rows {
		got := AppendRow(nil, row)
		if want := wantLine(t, row); !bytes.Equal(got, want) {
			t.Errorf("AppendRow(%q)\n got %s\nwant %s", row, got, want)
		}
		buf.Reset()
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("AppendRow(%q) differs from json.Encoder: %s vs %s", row, got, buf.Bytes())
		}
	}
	// Appending keeps what dst already holds.
	if got := string(AppendRow([]byte("x"), []string{"a"})); got != "x[\"a\"]\n" {
		t.Errorf("append onto a prefix = %q", got)
	}
}

// FuzzAppendRow pins the escaper to encoding/json on the running
// toolchain for arbitrary byte strings.
func FuzzAppendRow(f *testing.F) {
	for _, h := range hostile {
		f.Add(h, "x")
		f.Add("x", h)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, row := range [][]string{{a}, {a, b}} {
			if got, want := AppendRow(nil, row), wantLine(t, row); !bytes.Equal(got, want) {
				t.Fatalf("AppendRow(%q)\n got %s\nwant %s", row, got, want)
			}
		}
	})
}

// stringArray is the decoder's contract stated with encoding/json: the
// line is a JSON array and every element of it is a string.
func stringArray(line []byte) ([]string, bool) {
	var elems []any
	if json.Unmarshal(line, &elems) != nil || elems == nil {
		return nil, false
	}
	for _, e := range elems {
		if _, ok := e.(string); !ok {
			return nil, false
		}
	}
	row := []string{}
	if json.Unmarshal(line, &row) != nil {
		return nil, false
	}
	return row, true
}

// decodeOne decodes line as the only row of a width-wide accumulator.
func decodeOne(line []byte, width int) ([]string, error) {
	c := NewCells(width)
	if err := c.DecodeRow(line); err != nil {
		if c.Rows() != 0 || len(c.buf) != 0 || len(c.ends) != 0 {
			panic("a rejected line left a trace")
		}
		return nil, err
	}
	row := make([]string, width)
	for j, run := range c.Columns() {
		row[j] = run[0]
	}
	return row, nil
}

func TestDecodeRowTable(t *testing.T) {
	accept := map[string][]string{
		`[]`:                           {},
		`["a","b"]`:                    {"a", "b"},
		" [ \"a\" ,\t\"b\" ]\r\n":      {"a", "b"},
		`["",""]`:                      {"", ""},
		`["q\"b\\s\/","\b\f\n\r\t"]`:   {`q"b\s/`, "\b\f\n\r\t"},
		`["\u003c\u2028\ufffd"]`:       {"<\u2028\ufffd"},
		`["\ud83d\ude00","\ud800x"]`:   {"\U0001F600", "\ufffdx"},
		"[\"bad \xff\",\"caf\u00e9\"]": {"bad \ufffd", "caf\u00e9"},
	}
	for line, want := range accept {
		got, err := decodeOne([]byte(line), len(want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeRow(%q) = %q, %v; want %q", line, got, err, want)
		}
		if ref, ok := stringArray([]byte(line)); !ok || !reflect.DeepEqual(ref, want) {
			t.Errorf("oracle disagrees with the table on %q: %q, %v", line, ref, ok)
		}
		if _, err := decodeOne([]byte(line), len(want)+1); err == nil {
			t.Errorf("DecodeRow(%q) accepted a row one cell short", line)
		}
	}
	reject := []string{
		``, `null`, `{}`, `"a"`, `[`, `]`, `["a"`, `["a",]`, `[,"a"]`, `["a""b"]`, `["a"],`, `["a"]["b"]`,
		`[1]`, `[null]`, `[true]`, `["a",1]`, `[["a"]]`, `[{"a":"b"}]`,
		`["a]`, `["a\"]`, `["\x"]`, `["\u12"]`, `["\u12G4"]`, `["\`, "[\"raw\nnewline\"]", "[\"nul\x00\"]",
	}
	for _, line := range reject {
		for width := 0; width <= 2; width++ {
			if got, err := decodeOne([]byte(line), width); err == nil {
				t.Errorf("DecodeRow(%q, width %d) = %q, want an error", line, width, got)
			}
		}
	}
}

// FuzzDecodeRowLine holds the one-pass scanner to encoding/json on any
// bytes: a line encoding/json reads as an array of strings decodes to
// the same cells (and fails at any other width), anything else is an
// error, and nothing panics.
func FuzzDecodeRowLine(f *testing.F) {
	f.Add([]byte(`["a","b"]`))
	f.Add([]byte(" [ \"sp\" , \"aced\" ] \n"))
	f.Add([]byte(`["\ud83d\ude00","\ud800","\u12G4"]`))
	f.Add([]byte(`["a",1,null,["n"],{"k":"v"}]`))
	f.Add([]byte(`["unterminated`))
	f.Add([]byte("[\"bad \xff utf8\",\"\\x\"]"))
	for _, h := range hostile {
		f.Add(AppendRow(nil, []string{h, h}))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		want, ok := stringArray(line)
		if !ok {
			for width := 0; width <= 3; width++ {
				if got, err := decodeOne(line, width); err == nil {
					t.Fatalf("DecodeRow(%q, width %d) = %q; encoding/json rejects the line", line, width, got)
				}
			}
			return
		}
		got, err := decodeOne(line, len(want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeRow(%q) = %q, %v; encoding/json reads %q", line, got, err, want)
		}
		if _, err := decodeOne(line, len(want)+1); err == nil {
			t.Fatalf("DecodeRow(%q) accepted width %d", line, len(want)+1)
		}
	})
}

// TestCellsColumns checks the column-major hand-off: runs survive a
// Reset, a rejected line between good ones leaves no hole, and what
// AppendRow wrote is what comes back.
func TestCellsColumns(t *testing.T) {
	rows := [][]string{{"a", hostile[2]}, {hostile[5], ""}, {hostile[7], "z"}}
	c := NewCells(2)
	for i, row := range rows {
		if err := c.DecodeRow(AppendRow(nil, row)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := c.DecodeRow([]byte(`["ragged"]`)); err == nil {
				t.Fatal("ragged row accepted")
			}
		}
	}
	if c.Rows() != len(rows) {
		t.Fatalf("Rows = %d", c.Rows())
	}
	cols := c.Columns()
	c.Reset()
	if err := c.DecodeRow([]byte(`["overwrites","the arena"]`)); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		// What encoding/json reads back: invalid UTF-8 went out as
		// \ufffd, everything else unchanged.
		var want []string
		if err := json.Unmarshal(wantLine(t, row), &want); err != nil {
			t.Fatal(err)
		}
		for j := range row {
			if cols[j][i] != want[j] {
				t.Errorf("cell %d,%d = %q, want %q", i, j, cols[j][i], want[j])
			}
		}
	}
	if got := c.Columns(); got[0][0] != "overwrites" || len(got[1]) != 1 {
		t.Errorf("after Reset: %q", got)
	}
}
