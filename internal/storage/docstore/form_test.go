package docstore

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// fuzzValues are the field and filter values FuzzDocSelect draws from:
// what JSON decodes to (null, booleans, strings, float64 numbers, -0,
// objects, arrays), a number beside the same digits as a string, and
// Go values only Insert can be handed (NaN, infinity, an int, a
// json.Number, a nested Doc).
var fuzzValues = []any{
	nil, true, false, "", "abc", "b", "10", "7", "-0", "<nil>",
	10.0, 7.0, 0.0, math.Copysign(0, -1), -3.5, 1e3, 1e21, math.NaN(), math.Inf(1),
	map[string]any{"a": 1.0, "b": []any{"x", 2.0}}, []any{1.0, "y", nil}, []any{},
	7, json.Number("1e3"), Doc{"a": "z"},
}

// fuzzFields "u" stands for a field only document i holds, "u<i>", so
// that a collection of more than keepFill documents has fields the form
// keeps no column of.
var (
	fuzzFields = []string{"a", "b", "c", "_id", "a.b", "", "u"}
	fuzzPaths  = []string{"a", "b", "c", "_id", "", "missing", "a.a", "a.b", "a.0", "b.1", "c.b.1", "a.b.0", "u0", "u3", "u9.a"}
)

// fuzzCollection builds a filter list and a collection from data, one
// byte per choice, the filters first.
func fuzzCollection(data []byte) (*Collection, []Filter) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	var filters []Filter
	for k, m := 0, next(4); k < m; k++ {
		filters = append(filters, Filter{
			Path:  fuzzPaths[next(len(fuzzPaths))],
			Op:    Op(next(int(OpContains) + 2)),
			Value: fuzzValues[next(len(fuzzValues))],
		})
	}
	c := NewCollection("f")
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
		c.Insert(d)
	}
	return c, filters
}

// checkSelect compares Select with Filter.Match on every document, and
// the form's columns with the documents they were built from.
func checkSelect(t *testing.T, c *Collection, filters []Filter) {
	t.Helper()
	form, rows := c.Select(filters...)
	if form.Len() != c.Len() {
		t.Fatalf("form holds %d documents, collection %d", form.Len(), c.Len())
	}
	if !sort.SliceIsSorted(form.docs, func(a, b int) bool { return form.docs[a].ID() < form.docs[b].ID() }) {
		t.Fatal("form documents are not in ID order")
	}
	var want []int
	for i, d := range form.docs {
		ok := true
		for _, f := range filters {
			ok = ok && f.Match(d)
		}
		if ok {
			want = append(want, i)
		}
	}
	if len(filters) == 0 {
		if rows != nil {
			t.Fatalf("no filter: rows %v, want nil", rows)
		}
	} else if rows == nil || !reflect.DeepEqual(append([]int{}, rows...), append([]int{}, want...)) {
		t.Fatalf("filters %+v: Select %v, per-document Match %v", filters, rows, want)
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
		c, filters := fuzzCollection(data)
		checkSelect(t, c, filters)
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
		c, filters := fuzzCollection(data)
		checkSelect(t, c, filters)
	}
}

// TestSelectKeepsItsForm: Selects keep reading the form each took
// while Inserts go on, and the next Select sees the inserts.
func TestSelectKeepsItsForm(t *testing.T) {
	c := NewCollection("k")
	doc := func(i int) Doc { return Doc{"_id": fmt.Sprintf("d%04d", i), "v": float64(i), "s": fmt.Sprint(i)} }
	for i := 0; i < 100; i++ {
		c.Insert(doc(i))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; i < 1100; i++ {
			c.Insert(doc(i))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for k := 0; k < 100; k++ {
				form, rows := c.Select(Filter{Path: "v", Op: OpGte, Value: 50.0})
				v, s := form.Column("v"), form.Column("s")
				nums := v.Mirror.Numbers()
				for n, i := range rows {
					if nums.Vals[i] != float64(50+n) || s.Cells[i] != fmt.Sprint(50+n) {
						t.Errorf("reader %d select %d row %d: %v %q, want %d", r, k, n, nums.Vals[i], s.Cells[i], 50+n)
						return
					}
				}
				if len(rows) < last {
					t.Errorf("reader %d select %d: %d rows after %d", r, k, len(rows), last)
					return
				}
				last = len(rows)
			}
		}()
	}
	wg.Wait()
	if _, rows := c.Select(Filter{Path: "v", Op: OpGte, Value: 50.0}); len(rows) != 1050 {
		t.Errorf("after the inserts: %d rows, want 1050", len(rows))
	}
}

// TestFormBytes: a store holds no form bytes until a Select builds a
// form, a form holds its document list and the columns of the fields
// at least one document in keepFill holds, and the store holds none
// once the collection is dropped.
func TestFormBytes(t *testing.T) {
	s := New()
	c := NewCollection("b")
	for i := 0; i < 16; i++ {
		d := Doc{"v": float64(i % 10), "s": "x"}
		if i < 2 {
			d["dense"] = 1.5 // 2 of 16: kept
		}
		d[fmt.Sprint("sparse", i)] = 2.5 // 1 of 16 each: not kept
		c.Insert(d)
	}
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
