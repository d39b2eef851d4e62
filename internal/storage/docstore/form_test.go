package docstore

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fuzzValues are the field and filter values FuzzDocSelect draws from:
// what JSON decodes to (null, booleans, strings, numbers, -0, objects,
// arrays), and a number beside the same digits as a string.
var fuzzValues = []any{
	nil, true, false, "", "abc", "b", "10", "7", "-0", "<nil>",
	10.0, 7.0, 0.0, math.Copysign(0, -1), -3.5, 1e3, 1e21,
	map[string]any{"a": 1.0, "b": []any{"x", 2.0}}, []any{1.0, "y", nil}, []any{},
}

// fuzzFields "u" stands for a field only document i holds, "u<i>", so
// that a collection of more than keepFill documents has fields the form
// keeps no column of.
var (
	fuzzFields = []string{"a", "b", "c", "_id", "a.b", "", "u"}
	fuzzPaths  = []string{"a", "b", "c", "_id", "", "missing", "a.a", "a.b", "a.0", "b.1", "c.b.1", "a.b.0", "u0", "u3", "u9.a"}
)

// fuzzCollection builds a filter list and a collection from data, one
// byte per choice, the filters first. The documents are written as JSON
// Lines or as one array and decoded by Decode; want is what the
// collection should hold, worked out apart from it: each document under
// its ID ("f-<n>" for the n-th without one), the last of each ID, in ID
// order.
func fuzzCollection(t *testing.T, data []byte) (c *Collection, filters []Filter, want []Doc) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	for k, m := 0, next(4); k < m; k++ {
		filters = append(filters, Filter{
			Path:  fuzzPaths[next(len(fuzzPaths))],
			Op:    Op(next(int(OpContains) + 2)),
			Value: fuzzValues[next(len(fuzzValues))],
		})
	}
	lines := next(2) == 0
	var raw []string
	byID, auto := map[string]Doc{}, 0
	for i, n := 0, next(40); i < n; i++ {
		d := Doc{}
		for k, m := 0, next(5); k < m; k++ {
			field := fuzzFields[next(len(fuzzFields))]
			switch field {
			case "_id":
				d[field] = fmt.Sprintf("id%d", next(12))
				continue
			case "u":
				field = fmt.Sprint("u", i)
			}
			d[field] = fuzzValues[next(len(fuzzValues))]
		}
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, string(b))
		if d.ID() == "" {
			auto++
			d["_id"] = fmt.Sprintf("f-%d", auto)
		}
		byID[d.ID()] = d
	}
	text := "[" + strings.Join(raw, ",") + "]"
	if lines {
		text = strings.Join(raw, "\n")
	}
	c, err := Decode("f", []byte(text), lines)
	if err != nil && len(raw) > 0 {
		t.Fatalf("Decode(%q, lines %v): %v", text, lines, err)
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		want = append(want, byID[id])
	}
	return c, filters, want
}

// checkSelect compares the form with want, Select with Filter.Match on
// every document, and the form's columns with the documents they were
// built from.
func checkSelect(t *testing.T, c *Collection, filters []Filter, want []Doc) {
	t.Helper()
	form, rows := c.Select(filters...)
	if !reflect.DeepEqual(form.docs, want) {
		t.Fatalf("form holds %v, want %v", form.docs, want)
	}
	var match []int
	for i, d := range form.docs {
		ok := true
		for _, f := range filters {
			ok = ok && f.Match(d)
		}
		if ok {
			match = append(match, i)
		}
	}
	if len(filters) == 0 {
		if rows != nil {
			t.Fatalf("no filter: rows %v, want nil", rows)
		}
	} else if rows == nil || !reflect.DeepEqual(append([]int{}, rows...), append([]int{}, match...)) {
		t.Fatalf("filters %+v: Select %v, per-document Match %v", filters, rows, match)
	}
	for _, field := range form.fields {
		col, held := form.Column(field), 0
		for i, d := range form.docs {
			v, ok := d[field]
			text, typ := cellOf(v)
			if !ok {
				text, typ = "", typeMissing
			} else {
				held++
			}
			if got := form.Cell(i, field); got != text {
				t.Fatalf("field %q doc %d: Cell %q, want %q", field, i, got, text)
			}
			if col != nil && (col.Cells[i] != text || col.types[i] != typ) {
				t.Fatalf("field %q doc %d: cell %q type %d, want %q type %d", field, i, col.Cells[i], col.types[i], text, typ)
			}
		}
		if kept := held*keepFill >= form.Len(); kept != (col != nil) {
			t.Fatalf("field %q held by %d of %d documents: column kept %v", field, held, form.Len(), col != nil)
		}
	}
}

// FuzzDocSelect: Select agrees with per-document Filter.Match on
// generated documents and filters.
func FuzzDocSelect(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 0, 8, 1, 12, 3, 0, 1, 0, 0, 9})
	f.Add([]byte{30, 4, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 2, 0, 1, 3, 1, 2, 11})
	f.Add([]byte("\x14\x03\x00\x0a\x01\x0b\x02\x0d\x04\x00\x02\x05\x01\x06\x00\x0e\x03\x07\x00\x01\x0c\x03\x09\x02\x13"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, filters, want := fuzzCollection(t, data)
		checkSelect(t, c, filters, want)
	})
}

// TestSelectMatchesDocuments runs the fuzz target's check over a sweep
// of generated inputs.
func TestSelectMatchesDocuments(t *testing.T) {
	for seed := 0; seed < 2000; seed++ {
		data := make([]byte, 256)
		x := uint32(seed*2654435761 + 1)
		for i := range data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = byte(x)
		}
		c, filters, want := fuzzCollection(t, data)
		checkSelect(t, c, filters, want)
	}
}

// TestSelectKeepsItsForm: concurrent first Selects build one form and
// share it, and every later Select reads that form.
func TestSelectKeepsItsForm(t *testing.T) {
	var lines []string
	for i := 0; i < 1000; i++ {
		lines = append(lines, fmt.Sprintf(`{"_id":"d%04d","v":%d,"s":"%d"}`, i, i, i))
	}
	c := decode(t, "k", lines...)
	s := New()
	s.Add(c)
	start := make(chan struct{})
	forms := make([]*Form, 8)
	var wg sync.WaitGroup
	for r := range forms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			form, rows := c.Select(Filter{Path: "v", Op: OpGte, Value: 50.0})
			s.FormBytes()
			v, str := form.Column("v"), form.Column("s")
			nums := v.Mirror.Numbers()
			for n, i := range rows {
				if nums.Vals[i] != float64(50+n) || str.Cells[i] != fmt.Sprint(50+n) {
					t.Errorf("reader %d row %d: %v %q, want %d", r, n, nums.Vals[i], str.Cells[i], 50+n)
					return
				}
			}
			if len(rows) != 950 {
				t.Errorf("reader %d: %d rows, want 950", r, len(rows))
			}
			forms[r] = form
		}()
	}
	close(start)
	wg.Wait()
	for r, form := range forms {
		if form != forms[0] {
			t.Errorf("reader %d read another form than reader 0", r)
		}
	}
	if form, _ := c.Select(); form != forms[0] {
		t.Error("a later Select read another form")
	}
	if n := s.FormBytes(); n != forms[0].Size() || n == 0 {
		t.Errorf("FormBytes %d, the form holds %d", n, forms[0].Size())
	}
}

// TestFormBytes: a store holds no form bytes until a Select builds a
// form, a form holds its document list and the columns of the fields
// at least one document in keepFill holds, and the store holds none
// once the collection is dropped.
func TestFormBytes(t *testing.T) {
	s := New()
	var lines []string
	for i := 0; i < 16; i++ {
		dense := ""
		if i < 2 {
			dense = `,"dense":1.5` // 2 of 16: kept
		}
		// sparse<i>: 1 of 16 each, not kept.
		lines = append(lines, fmt.Sprintf(`{"v":%d,"s":"x"%s,"sparse%d":2.5}`, i%10, dense, i))
	}
	c := decode(t, "b", lines...)
	s.Add(c)
	if n := s.FormBytes(); n != 0 {
		t.Fatalf("before any Select: %d bytes", n)
	}
	c.Select()
	// _id, s, v and dense: 17 bytes per cell each, v's formatted
	// numbers "0".."9","0".."5" and dense's two "1.5".
	if n, want := s.FormBytes(), int64(8*16+4*17*16+16+2*3); n != want {
		t.Errorf("built form: %d bytes, want %d", n, want)
	}
	c.Select(Filter{Path: "v", Op: OpGt, Value: 4.0})
	// v's float mirror: 8 bytes per cell and one word of bits.
	if n, want := s.FormBytes(), int64(8*16+4*17*16+16+2*3+8*16+8); n != want {
		t.Errorf("after a numeric filter on v: %d bytes, want %d", n, want)
	}
	if err := s.Drop("b"); err != nil {
		t.Fatal(err)
	}
	if n := s.FormBytes(); n != 0 {
		t.Errorf("after Drop: %d bytes", n)
	}
}
