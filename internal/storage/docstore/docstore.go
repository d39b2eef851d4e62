// Package docstore is an in-process JSON document store, stand-in for
// the MongoDB sink the surveyed polystore lakes (Constance, CoreDB,
// Squerall) route semi-structured data to (Sec. 4.2/4.3). Documents are
// schemaless JSON objects grouped into named collections; queries are
// conjunctive field filters over dotted paths.
package docstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
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

// Collection is a set of documents.
type Collection struct {
	name string

	mu     sync.RWMutex
	docs   map[string]Doc
	autoID int
	// form is the documents column by column, what Select reads: built
	// by the first Select after an Insert, which resets it. A built
	// form is never written again, so a reader keeps the one it took
	// while later Inserts go on.
	form *Form
}

// Store holds named collections.
type Store struct {
	mu          sync.RWMutex
	collections map[string]*Collection
}

// New creates an empty document store.
func New() *Store { return &Store{collections: map[string]*Collection{}} }

// NewCollection creates an empty collection that belongs to no store
// until Add stores it.
func NewCollection(name string) *Collection {
	return &Collection{name: name, docs: map[string]Doc{}}
}

// Collection returns the named collection, or nil when the store holds
// none of that name. A lookup creates nothing; a nil collection reads
// as empty.
func (s *Store) Collection(name string) *Collection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.collections[name]
}

// Add stores c under its name, replacing any collection of that name.
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

// Insert adds a document. If it has no "_id", one is assigned.
// The returned string is the document ID.
func (c *Collection) Insert(doc Doc) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := doc.ID()
	if id == "" {
		c.autoID++
		id = fmt.Sprintf("%s-%d", c.name, c.autoID)
		doc["_id"] = id
	}
	c.docs[id] = doc
	c.form = nil
	return id
}

// InsertJSON parses and inserts a JSON object.
func (c *Collection) InsertJSON(raw []byte) (string, error) {
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return "", fmt.Errorf("docstore: insert json: %w", err)
	}
	return c.Insert(doc), nil
}

// Len returns the number of documents; 0 for a nil collection.
func (c *Collection) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// Select returns the collection's columnar form and the positions, in
// ascending order, of the documents in it that satisfy every filter,
// with exactly Filter.Match's semantics. rows is nil when there are no
// filters: every row is selected. A nil collection has an empty form.
//
// A filter on a top-level field the form keeps a column of reads the
// field's type bytes and cell texts; only the null, nested or non-JSON
// values of a field it compares, and every document under a dotted
// path or a sparse field, are matched on the document itself.
func (c *Collection) Select(filters ...Filter) (form *Form, rows []int) {
	if c == nil {
		return &Form{}, nil
	}
	c.mu.RLock()
	form = c.form
	c.mu.RUnlock()
	if form == nil {
		c.mu.Lock()
		if c.form == nil {
			c.form = buildForm(c.docs)
		}
		form = c.form
		c.mu.Unlock()
	}
	for _, f := range filters {
		rows = form.narrow(f, rows)
	}
	return form, rows
}

// formSize is the bytes the collection's form holds, 0 while none is
// built.
func (c *Collection) formSize() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.form.Size()
}

// FormBytes is the bytes the built columnar forms of the store's
// collections hold (Form.Size): 0 before any Select, and a collection's
// share leaves with it when it is dropped or its form is reset.
func (s *Store) FormBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, c := range s.collections {
		n += c.formSize()
	}
	return n
}

// Match reports whether d satisfies f. A missing field satisfies only
// OpExists with a Value other than true; any other operator needs the
// field. OpEq and OpNe compare canonical texts (a number in its
// shortest form, so float64(1) equals int 1); the ordering operators
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
		a, okA := toFloat(v)
		b, okB := toFloat(f.Value)
		if !okA || !okB {
			return compareText(f.Op, canon(v), canon(f.Value))
		}
		return compareFloat(f.Op, a, b)
	}
	return false
}

// compareText is an ordering operator on canonical texts.
func compareText(op Op, a, b string) bool {
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

// compareFloat is an ordering operator on numbers.
func compareFloat(op Op, a, b float64) bool {
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
		case Doc:
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

// canon renders a value canonically so that json float64(1) and int(1)
// compare equal.
func canon(v any) string {
	if f, ok := toFloat(v); ok {
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

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	default:
		return 0, false
	}
}
