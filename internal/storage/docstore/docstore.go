// Package docstore is an in-process JSON document store, stand-in for
// the MongoDB sink the surveyed polystore lakes (Constance, CoreDB,
// Squerall) route semi-structured data to (Sec. 4.2/4.3). Documents are
// schemaless JSON objects grouped into named collections; queries are
// conjunctive field filters over dotted paths.
package docstore

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrNoCollection is returned by Drop for a missing collection.
var ErrNoCollection = errors.New("docstore: no such collection")

// Doc is a parsed JSON object.
type Doc map[string]any

// ID returns the document's "_id" field as a string.
func (d Doc) ID() string {
	id, _ := d["_id"].(string)
	return id
}

// Op is a filter comparison operator.
type Op int

// Supported comparison operators.
const (
	OpEq Op = iota
	OpNe
	OpGt
	OpGte
	OpLt
	OpLte
	OpExists
	OpContains // substring match on string fields
)

// Filter is one predicate on a dotted field path.
type Filter struct {
	Path  string
	Op    Op
	Value any
}

// Collection is a named set of documents, decoded from JSON once
// (Decode) and never written again: a new version is a new collection
// that Store.Add swaps in whole, so a reader keeps the one it looked up.
type Collection struct {
	name string
	// docs are the documents as decoded, in input order, until the
	// first Select builds form from them.
	docs []Doc
	once sync.Once
	// form is the documents column by column, what Select reads: built
	// once, by the first Select, and never written again.
	form atomic.Pointer[Form]
}

// Store holds named collections.
type Store struct {
	mu          sync.RWMutex
	collections map[string]*Collection
}

// New creates an empty document store.
func New() *Store { return &Store{collections: map[string]*Collection{}} }

// Decode makes the collection name from JSON, which belongs to no store
// until Store.Add stores it. data holds one document per non-blank line
// when lines is set, else an array of documents or one document. A document without
// an "_id" string is given "<name>-<n>", n counting such documents from
// 1; of documents that share an ID the last wins. A document that is
// not a JSON object is an error, and so is no document at all.
func Decode(name string, data []byte, lines bool) (*Collection, error) {
	var vals []any
	decode := func(b []byte) error {
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			return fmt.Errorf("docstore: %s: %w", name, err)
		}
		vals = append(vals, v)
		return nil
	}
	if lines {
		for rest := data; len(rest) > 0; {
			var line []byte
			line, rest, _ = bytes.Cut(rest, []byte("\n"))
			if line = bytes.TrimSpace(line); len(line) == 0 {
				continue
			}
			if err := decode(line); err != nil {
				return nil, err
			}
		}
	} else if err := decode(data); err != nil {
		return nil, err
	} else if arr, ok := vals[0].([]any); ok {
		vals = arr
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("docstore: %s holds no document", name)
	}
	c := &Collection{name: name, docs: make([]Doc, len(vals))}
	auto := 0
	for i, v := range vals {
		d, ok := v.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("docstore: %s: document %d is not a JSON object", name, i+1)
		}
		if Doc(d).ID() == "" {
			auto++
			d["_id"] = name + "-" + strconv.Itoa(auto)
		}
		c.docs[i] = d
	}
	return c, nil
}

// Collection returns the named collection, or nil when the store holds
// none of that name. A lookup creates nothing; a nil collection reads
// as empty.
func (s *Store) Collection(name string) *Collection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.collections[name]
}

// Add stores c under its name, replacing any collection of that name
// whole.
func (s *Store) Add(c *Collection) {
	s.mu.Lock()
	s.collections[c.name] = c
	s.mu.Unlock()
}

// Drop removes a collection; dropping a missing one returns
// ErrNoCollection.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.collections[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoCollection, name)
	}
	delete(s.collections, name)
	return nil
}

// Select returns the collection's columnar form and the positions, in
// ascending order, of the documents in it that satisfy every filter,
// with exactly Filter.Match's semantics. rows is nil when there are no
// filters: every row is selected. A nil collection has an empty form.
// The first Select builds the form; every later one reads it.
//
// A filter on a top-level field the form keeps a column of reads the
// field's type bytes and cell texts; only the null or nested values of
// a field it compares, and every document under a dotted path or a
// sparse field, are matched on the document itself.
func (c *Collection) Select(filters ...Filter) (form *Form, rows []int) {
	if c == nil {
		form = &Form{}
	} else {
		c.once.Do(func() {
			c.form.Store(buildForm(c.docs))
			c.docs = nil
		})
		form = c.form.Load()
	}
	for _, f := range filters {
		rows = form.narrow(f, rows)
	}
	return form, rows
}

// FormBytes is the bytes the built columnar forms of the store's
// collections hold (Form.Size): 0 before any Select, and a collection's
// share leaves with it when it is dropped or replaced.
func (s *Store) FormBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, c := range s.collections {
		n += c.form.Load().Size()
	}
	return n
}

// Match reports whether d satisfies f. A missing field satisfies only
// OpExists with a Value other than true; any other operator needs the
// field. OpEq and OpNe compare canonical texts (a number in its
// shortest form, so JSON's 1.0 equals 1 and "1"); the ordering operators
// compare numbers when both sides are numbers and canonical texts
// otherwise; OpContains needs two strings.
func (f Filter) Match(d Doc) bool {
	v, ok := lookupPath(d, f.Path)
	if f.Op == OpExists {
		want, _ := f.Value.(bool)
		return ok == want || (f.Value == nil && ok)
	}
	if !ok {
		return false
	}
	switch f.Op {
	case OpEq:
		return canon(v) == canon(f.Value)
	case OpNe:
		return canon(v) != canon(f.Value)
	case OpContains:
		s, ok1 := v.(string)
		sub, ok2 := f.Value.(string)
		return ok1 && ok2 && strings.Contains(s, sub)
	case OpGt, OpGte, OpLt, OpLte:
		a, okA := v.(float64)
		b, okB := f.Value.(float64)
		if !okA || !okB {
			return compare(f.Op, canon(v), canon(f.Value))
		}
		return compare(f.Op, a, b)
	}
	return false
}

// compare is an ordering operator on canonical texts or on numbers.
func compare[T cmp.Ordered](op Op, a, b T) bool {
	switch op {
	case OpGt:
		return a > b
	case OpGte:
		return a >= b
	case OpLt:
		return a < b
	default:
		return a <= b
	}
}

// lookupPath resolves a dotted path ("a.b.c") inside nested maps;
// array elements are addressed by numeric segments.
func lookupPath(d Doc, path string) (any, bool) {
	var cur any = map[string]any(d)
	for more := true; more; {
		var seg string
		seg, path, more = strings.Cut(path, ".")
		switch node := cur.(type) {
		case map[string]any:
			v, ok := node[seg]
			if !ok {
				return nil, false
			}
			cur = v
		case []any:
			i, err := strconv.Atoi(seg)
			if err != nil || i < 0 || i >= len(node) {
				return nil, false
			}
			cur = node[i]
		default:
			return nil, false
		}
	}
	return cur, true
}

// canon renders a value canonically: a number in its shortest form, so
// that JSON's 1 and 1.0 compare equal.
func canon(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	switch x := v.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case nil:
		return "<nil>"
	default:
		b, _ := json.Marshal(x)
		return string(b)
	}
}
