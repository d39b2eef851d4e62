package docstore

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"golake/internal/table"
)

// valueType classifies one document's value of one top-level field.
type valueType byte

// The value types a column records: the ones whose text decides a
// filter, and the rest.
const (
	typeMissing valueType = iota // the document has no such field
	typeString
	typeNumber // float64, what JSON numbers decode to
	typeBool
	typeOther // null, an object or an array
)

// Form is a collection's documents column by column, the way the
// relational store keeps a table: the documents in ID order, and for
// each top-level field that at least one document in keepFill holds,
// one cell text and one type byte per document plus a table.Mirror of
// the texts. A sparser field keeps no column: a column costs 17 bytes
// per document whether or not the document holds the field, so the
// kept columns cost at most 17*keepFill bytes per value the documents
// hold. A scan reads a sparse field's cells off the documents (Cell).
// A form is built whole and never written again.
type Form struct {
	docs   []Doc
	fields []string  // sorted: every top-level field a document holds
	cols   []*Column // cols[j] is fields[j]'s column; nil when sparse
	// scalar lists, sorted, the fields other than "_id" that hold a
	// value other than an object or an array in some document.
	scalar []string
}

// keepFill is the sparsest a kept column may be: at least one document
// in keepFill holds its field.
const keepFill = 8

// Column is one top-level field of a form. Cells[i] is document i's
// value as text: a string as itself, a number in its shortest form
// (strconv's 'g', -1), null and a missing field as "", and any other
// value as fmt's %v; types[i] is its valueType. Mirror derives the
// float and JSON forms of Cells.
type Column struct {
	Cells  []string
	types  []valueType
	Mirror table.Mirror
	// size is the bytes Cells and types hold, and the texts the column
	// formatted (a string cell shares the document's).
	size int64
}

// buildForm lists docs in ID order, the last of each ID's documents
// only, gathers their top-level fields and builds the columns of the
// fields dense enough to keep.
func buildForm(docs []Doc) *Form {
	type idDoc struct {
		id string
		d  Doc
	}
	byID := make([]idDoc, len(docs))
	for i, d := range docs {
		byID[i] = idDoc{d.ID(), d}
	}
	slices.SortStableFunc(byID, func(a, b idDoc) int { return strings.Compare(a.id, b.id) })
	f := &Form{docs: make([]Doc, 0, len(byID))}
	type seen struct {
		n      int  // documents that hold the field
		scalar bool // one of them holds a scalar
	}
	held := map[string]seen{}
	for i, e := range byID {
		if i+1 < len(byID) && byID[i+1].id == e.id {
			continue
		}
		f.docs = append(f.docs, e.d)
		for k, v := range e.d {
			s, ok := held[k]
			if !ok {
				f.fields = append(f.fields, k)
			}
			held[k] = seen{s.n + 1, s.scalar || !nested(v)}
		}
	}
	sort.Strings(f.fields)
	f.cols = make([]*Column, len(f.fields))
	for j, k := range f.fields {
		if held[k].n*keepFill >= len(f.docs) {
			f.cols[j] = f.column(k)
		}
		if k != "_id" && held[k].scalar {
			f.scalar = append(f.scalar, k)
		}
	}
	return f
}

// nested reports whether v is a JSON object or array.
func nested(v any) bool {
	switch v.(type) {
	case map[string]any, []any:
		return true
	}
	return false
}

// column builds field's column.
func (f *Form) column(field string) *Column {
	n := len(f.docs)
	c := &Column{Cells: make([]string, n), types: make([]valueType, n), size: int64(17 * n)}
	for i, d := range f.docs {
		if v, ok := d[field]; ok {
			c.Cells[i], c.types[i] = cellOf(v)
			if c.types[i] != typeString {
				c.size += int64(len(c.Cells[i]))
			}
		}
	}
	c.Mirror = table.MirrorOf(c.Cells)
	return c
}

// cellOf is a value's cell text and type.
func cellOf(v any) (string, valueType) {
	switch x := v.(type) {
	case nil:
		return "", typeOther
	case string:
		return x, typeString
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64), typeNumber
	case bool:
		return strconv.FormatBool(x), typeBool
	}
	return fmt.Sprint(v), typeOther
}

// Len returns the number of documents.
func (f *Form) Len() int { return len(f.docs) }

// field returns field's index in fields, or -1 when no document holds
// it.
func (f *Form) field(field string) int {
	j := sort.SearchStrings(f.fields, field)
	if j == len(f.fields) || f.fields[j] != field {
		return -1
	}
	return j
}

// Column returns the named top-level field's column, or nil when the
// form keeps none: no document holds the field, or too few do.
func (f *Form) Column(field string) *Column {
	if j := f.field(field); j >= 0 {
		return f.cols[j]
	}
	return nil
}

// Cell returns document i's cell text of the named top-level field,
// read off the document under Column's rules.
func (f *Form) Cell(i int, field string) string {
	text, _ := cellOf(f.docs[i][field])
	return text
}

// ScalarFields returns, sorted, the top-level fields other than "_id"
// that hold a value other than an object or an array (null included)
// in at least one of rows; in any document when rows is nil. It builds
// no column.
func (f *Form) ScalarFields(rows []int) []string {
	if rows == nil {
		return slices.Clone(f.scalar)
	}
	set := map[string]bool{}
	for _, i := range rows {
		for k, v := range f.docs[i] {
			if k != "_id" && !nested(v) {
				set[k] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Size returns the bytes the form holds: 8 per document for its list,
// and for each kept column 17 per cell for the text's header and the
// type byte, the texts it formatted (a string cell shares the
// document's), and the forms its mirror has built. 0 for a nil form.
// Safe for concurrent use.
func (f *Form) Size() int64 {
	if f == nil {
		return 0
	}
	n := int64(8 * len(f.docs))
	for _, c := range f.cols {
		if c != nil {
			n += c.size + c.Mirror.Size()
		}
	}
	return n
}

// narrow returns the rows among in (every row when in is nil) that
// satisfy flt, never nil. It reuses in's array.
func (f *Form) narrow(flt Filter, in []int) []int {
	match := f.matcher(flt)
	if in == nil {
		out := make([]int, 0, len(f.docs))
		for i := range f.docs {
			if match(i) {
				out = append(out, i)
			}
		}
		return out
	}
	out := in[:0]
	for _, i := range in {
		if match(i) {
			out = append(out, i)
		}
	}
	return out
}

// matcher compiles flt against the form: Filter.Match of document i,
// read from the field's kept column where the type byte and the text
// decide it, and off the document otherwise.
func (f *Form) matcher(flt Filter) func(i int) bool {
	onDoc := func(i int) bool { return flt.Match(f.docs[i]) }
	if strings.Contains(flt.Path, ".") {
		return onDoc
	}
	want, _ := flt.Value.(bool)
	j := f.field(flt.Path)
	if j < 0 {
		// Every document misses the field.
		return func(int) bool { return flt.Op == OpExists && !want }
	}
	col := f.cols[j]
	if col == nil {
		return onDoc
	}
	types, cells := col.types, col.Cells
	switch flt.Op {
	case OpExists:
		present := want || flt.Value == nil
		return func(i int) bool {
			if types[i] == typeMissing {
				return !want
			}
			return present
		}
	case OpContains:
		sub, ok := flt.Value.(string)
		return func(i int) bool { return ok && types[i] == typeString && strings.Contains(cells[i], sub) }
	case OpEq, OpNe, OpGt, OpGte, OpLt, OpLte:
	default:
		return func(int) bool { return false }
	}
	text := canon(flt.Value)
	num, numOK := flt.Value.(float64)
	var nums *table.Numbers
	if numOK && (flt.Op == OpGt || flt.Op == OpGte || flt.Op == OpLt || flt.Op == OpLte) {
		nums = col.Mirror.Numbers()
	}
	return func(i int) bool {
		switch types[i] {
		case typeMissing:
			return false
		case typeOther:
			return onDoc(i)
		}
		switch flt.Op {
		case OpEq:
			return cells[i] == text
		case OpNe:
			return cells[i] != text
		}
		if nums != nil && types[i] == typeNumber {
			if nums.Valid[i>>6]&(1<<(uint(i)&63)) == 0 {
				return onDoc(i)
			}
			return compare(flt.Op, nums.Vals[i], num)
		}
		return compare(flt.Op, cells[i], text)
	}
}
