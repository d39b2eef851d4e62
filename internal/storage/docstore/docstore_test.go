package docstore

import (
	"errors"
	"fmt"
	"sort"
	"testing"
)

func TestExplicitIDUpsert(t *testing.T) {
	c := NewCollection("c")
	c.Insert(Doc{"_id": "x", "v": 1.0})
	c.Insert(Doc{"_id": "x", "v": 2.0})
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (upsert)", c.Len())
	}
	d := c.docs["x"]
	if d["v"] != 2.0 {
		t.Errorf("v = %v, want 2", d["v"])
	}
}

func TestInsertJSON(t *testing.T) {
	c := NewCollection("j")
	id, err := c.InsertJSON([]byte(`{"kind":"sensor","reading":{"temp":21.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	d := c.docs[id]
	if v, ok := lookup(d, "reading.temp"); !ok || v != 21.5 {
		t.Errorf("nested lookup = %v, %v", v, ok)
	}
	if _, err := c.InsertJSON([]byte(`not json`)); err == nil {
		t.Error("invalid json should fail")
	}
}

func TestFindFilters(t *testing.T) {
	c := NewCollection("readings")
	for i := 0; i < 10; i++ {
		c.Insert(Doc{"_id": fmt.Sprintf("r%02d", i), "v": float64(i), "tag": map[string]any{"site": fmt.Sprintf("s%d", i%2)}})
	}
	if got := find(c, eq("tag.site", "s0")); len(got) != 5 {
		t.Errorf("Eq find = %d docs, want 5", len(got))
	}
	if got := find(c, Filter{Path: "v", Op: OpGte, Value: 7.0}); len(got) != 3 {
		t.Errorf("Gte find = %d docs, want 3", len(got))
	}
	if got := find(c, eq("tag.site", "s1"), Filter{Path: "v", Op: OpLt, Value: 4.0}); len(got) != 2 {
		t.Errorf("conjunctive find = %d docs, want 2", len(got))
	}
	if got := find(c, Filter{Path: "missing", Op: OpExists, Value: false}); len(got) != 10 {
		t.Errorf("not-exists find = %d docs, want 10", len(got))
	}
	if got := find(c, Filter{Path: "v", Op: OpExists, Value: true}); len(got) != 10 {
		t.Errorf("exists find = %d, want 10", len(got))
	}
	if got := len(find(c, Filter{Path: "v", Op: OpNe, Value: 3.0})); got != 9 {
		t.Errorf("Ne count = %d, want 9", got)
	}
}

func TestContainsFilter(t *testing.T) {
	c := NewCollection("c")
	c.Insert(Doc{"_id": "1", "desc": "sensor data from berlin plant"})
	c.Insert(Doc{"_id": "2", "desc": "sales figures"})
	got := find(c, Filter{Path: "desc", Op: OpContains, Value: "berlin"})
	if len(got) != 1 || got[0].ID() != "1" {
		t.Errorf("Contains = %v", got)
	}
}

func TestIntFloatEquality(t *testing.T) {
	c := NewCollection("n")
	c.Insert(Doc{"_id": "a", "v": 1.0}) // JSON numbers decode as float64
	if got := find(c, eq("v", 1)); len(got) != 1 {
		t.Errorf("int filter should match float64 value, got %d", len(got))
	}
}

func TestArrayPathLookup(t *testing.T) {
	c := NewCollection("a")
	id, err := c.InsertJSON([]byte(`{"tags":["x","y","z"]}`))
	if err != nil {
		t.Fatal(err)
	}
	d := c.docs[id]
	if v, ok := lookup(d, "tags.1"); !ok || v != "y" {
		t.Errorf("array lookup = %v, %v", v, ok)
	}
	if _, ok := lookup(d, "tags.9"); ok {
		t.Error("out-of-range array lookup should fail")
	}
	if _, ok := lookup(d, "tags.x"); ok {
		t.Error("non-numeric array segment should fail")
	}
}

func TestCollectionsAndDrop(t *testing.T) {
	s := New()
	s.Add(NewCollection("b"))
	s.Add(NewCollection("a"))
	got := names(s)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Collections = %v", got)
	}
	if err := s.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop("a"); !errors.Is(err, ErrNoCollection) {
		t.Errorf("Drop missing = %v", err)
	}
}

// eq is an equality filter.
func eq(path string, value any) Filter { return Filter{Path: path, Op: OpEq, Value: value} }

// names lists the store's collection names, sorted.
func names(s *Store) []string {
	var out []string
	for n := range s.collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// lookup resolves a dotted path.
func lookup(d Doc, path string) (any, bool) { return lookupPath(d, path) }

// find returns the documents Select picks, in ID order; none for a nil
// collection.
func find(c *Collection, filters ...Filter) []Doc {
	form, rows := c.Select(filters...)
	if rows == nil && len(filters) == 0 {
		return form.docs
	}
	var out []Doc
	for _, i := range rows {
		out = append(out, form.docs[i])
	}
	return out
}

func TestCollectionLookupCreatesNothing(t *testing.T) {
	s := New()
	c := s.Collection("ghost")
	if c != nil {
		t.Fatalf("Collection(ghost) = %v, want nil", c)
	}
	if got := find(c); got != nil || c.Len() != 0 || len(find(c)) != 0 {
		t.Errorf("a nil collection reads %v, Len %d; want empty", got, c.Len())
	}
	if got := names(s); len(got) != 0 {
		t.Errorf("Collections = %v after a lookup, want none", got)
	}
	added := NewCollection("real")
	s.Add(added)
	if s.Collection("real") != added {
		t.Error("Collection(real) is not the collection Add stored")
	}
}
