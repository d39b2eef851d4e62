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
	"sort"
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

	// order is every doc ID, sorted: the order Find returns documents
	// in. Insert of a new ID resets it to nil under mu; the next
	// Find re-sorts under mu's read lock and orderMu.
	orderMu sync.Mutex
	order   []string
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

// Collection returns (creating if needed) the named collection.
func (s *Store) Collection(name string) *Collection {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.collections[name]
	if !ok {
		c = NewCollection(name)
		s.collections[name] = c
	}
	return c
}

// Add stores c under its name, replacing any collection of that name.
func (s *Store) Add(c *Collection) {
	s.mu.Lock()
	s.collections[c.name] = c
	s.mu.Unlock()
}

// Collections lists collection names, sorted.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.collections))
	for n := range s.collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
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
	if _, ok := c.docs[id]; !ok {
		c.order = nil
	}
	c.docs[id] = doc
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

// Len returns the number of documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// Find returns all documents satisfying every filter, ordered by ID.
func (c *Collection) Find(filters ...Filter) []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	paths := make([][]string, len(filters))
	for i, f := range filters {
		paths[i] = strings.Split(f.Path, ".")
	}
	var out []Doc
next:
	for _, id := range c.sortedIDs() {
		d := c.docs[id]
		for i, f := range filters {
			if !matches(d, f, paths[i]) {
				continue next
			}
		}
		out = append(out, d)
	}
	return out
}

// sortedIDs returns every doc ID in order, sorting them first if an
// Insert changed the set. The caller holds c.mu's read lock;
// the slice returned is never written again.
func (c *Collection) sortedIDs() []string {
	c.orderMu.Lock()
	defer c.orderMu.Unlock()
	if c.order == nil {
		c.order = make([]string, 0, len(c.docs))
		for id := range c.docs {
			c.order = append(c.order, id)
		}
		sort.Strings(c.order)
	}
	return c.order
}

// All returns every document, ordered by ID.
func (c *Collection) All() []Doc { return c.Find() }

// matches evaluates f on d; path is f.Path split at its dots.
func matches(d Doc, f Filter, path []string) bool {
	v, ok := lookupPath(d, path)
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
			// fall back to string comparison
			sa, sb := canon(v), canon(f.Value)
			switch f.Op {
			case OpGt:
				return sa > sb
			case OpGte:
				return sa >= sb
			case OpLt:
				return sa < sb
			default:
				return sa <= sb
			}
		}
		switch f.Op {
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
	return false
}

// lookupPath resolves a dotted path ("a.b.c"), split at its dots,
// inside nested maps; array elements are addressed by numeric segments.
func lookupPath(d Doc, path []string) (any, bool) {
	var cur any = map[string]any(d)
	for _, seg := range path {
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
