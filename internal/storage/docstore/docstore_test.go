package docstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// decode builds a collection from JSON Lines, failing the test on an
// error.
func decode(t *testing.T, name string, lines ...string) *Collection {
	t.Helper()
	c, err := Decode(name, []byte(strings.Join(lines, "\n")), true)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExplicitIDUpsert(t *testing.T) {
	c := decode(t, "c", `{"_id":"x","v":1}`, `{"v":3}`, `{"_id":"x","v":2}`, `{"_id":"c-1","v":4}`)
	got := find(c)
	if len(got) != 2 {
		t.Fatalf("%d documents, want 2 (upsert): %v", len(got), got)
	}
	// The last document of each ID wins, a generated ID ("c-1") too.
	if got[0]["v"] != 4.0 || got[1]["v"] != 2.0 {
		t.Errorf("documents %v, want c-1 at 4 and x at 2", got)
	}
}

func TestDecode(t *testing.T) {
	c := decode(t, "j", `{"kind":"sensor","reading":{"temp":21.5}}`)
	d := find(c)[0]
	if v, ok := lookup(d, "reading.temp"); !ok || v != 21.5 {
		t.Errorf("nested lookup = %v, %v", v, ok)
	}
	if d.ID() != "j-1" {
		t.Errorf("ID = %q, want j-1", d.ID())
	}
	for _, in := range []struct {
		data  string
		lines bool
		docs  int // 0: an error
	}{
		{`[{"a":1},{"_id":"j-1"},{"a":2}]`, false, 2},
		{" {\"a\":1} ", false, 1},
		{"\n{\"a\":1}\n\n  {\"a\":2}  \n", true, 2},
		{`not json`, false, 0},
		{"{\"a\":1}\nnot json", true, 0},
		{`null`, false, 0},
		{"null\n", true, 0},
		{`[{"a":1},null]`, false, 0},
		{`[1,2]`, false, 0},
		{`"x"`, false, 0},
		{`[]`, false, 0},
		{"\n\n", true, 0},
		{`[{"a":1}]`, true, 0},
	} {
		c, err := Decode("j", []byte(in.data), in.lines)
		if in.docs == 0 {
			if err == nil {
				t.Errorf("Decode(%q, lines %v): no error", in.data, in.lines)
			}
			continue
		}
		if err != nil || len(find(c)) != in.docs {
			t.Errorf("Decode(%q, lines %v): %v, %v; want %d documents", in.data, in.lines, find(c), err, in.docs)
		}
	}
}

func TestFindFilters(t *testing.T) {
	var lines []string
	for i := 0; i < 10; i++ {
		lines = append(lines, fmt.Sprintf(`{"_id":"r%02d","v":%d,"tag":{"site":"s%d"}}`, i, i, i%2))
	}
	c := decode(t, "readings", lines...)
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
	c := decode(t, "c", `{"_id":"1","desc":"sensor data from berlin plant"}`, `{"_id":"2","desc":"sales figures"}`)
	got := find(c, Filter{Path: "desc", Op: OpContains, Value: "berlin"})
	if len(got) != 1 || got[0].ID() != "1" {
		t.Errorf("Contains = %v", got)
	}
}

// TestIntFloatEquality: JSON's 1.0 equals a query's 1, as a number and
// as the text "1".
func TestIntFloatEquality(t *testing.T) {
	c := decode(t, "n", `{"_id":"a","v":1.0}`)
	if got := find(c, eq("v", 1.0)); len(got) != 1 {
		t.Errorf("numeric filter 1 should match 1.0, got %d", len(got))
	}
	if got := find(c, eq("v", "1")); len(got) != 1 {
		t.Errorf("text filter \"1\" should match 1.0, got %d", len(got))
	}
}

func TestArrayPathLookup(t *testing.T) {
	d := find(decode(t, "a", `{"tags":["x","y","z"]}`))[0]
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
	s.Add(decode(t, "b", `{}`))
	s.Add(decode(t, "a", `{}`))
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
	if got := find(c); got != nil {
		t.Errorf("a nil collection reads %v, want nothing", got)
	}
	if got := names(s); len(got) != 0 {
		t.Errorf("Collections = %v after a lookup, want none", got)
	}
	added := decode(t, "real", `{}`)
	s.Add(added)
	if s.Collection("real") != added {
		t.Error("Collection(real) is not the collection Add stored")
	}
}
