package extract

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"golake/internal/storage/filestore"
	"golake/internal/storage/polystore"
)

// checkDocumentTree runs body through placement and extraction, as
// ingest does, and requires the tree and the depth and nodes properties
// to be JSONTree's or JSONLTree's of the raw bytes, and that tree to be
// the reference's (refTree). placed reports whether placement decoded
// documents, so the tree came from them.
func checkDocumentTree(t *testing.T, path string, body []byte) (placed bool) {
	t.Helper()
	st, err := polystore.Prepare(path, body, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := ExtractParsed(path, body, &st)
	var tree *TreeNode
	var rawErr error
	if st.Placement.Format == filestore.FormatJSONL {
		tree, rawErr = JSONLTree(body)
	} else {
		tree, rawErr = JSONTree(body)
	}
	if (gotErr != nil) != (rawErr != nil) {
		t.Fatalf("%s %q: extraction error %v, raw decode error %v", path, body, gotErr, rawErr)
	}
	if rawErr != nil {
		return st.Docs != nil
	}
	if ref := refTree(body, st.Placement.Format == filestore.FormatJSONL); !reflect.DeepEqual(tree, ref) {
		t.Fatalf("%s %q:\ntree from the bytes %s\nreference tree     %s", path, body, dumpTree(tree), dumpTree(ref))
	}
	if !reflect.DeepEqual(got.Tree, tree) {
		t.Fatalf("%s %q:\ntree from the documents %s\ntree from the bytes     %s", path, body, dumpTree(got.Tree), dumpTree(tree))
	}
	want := map[string]string{"depth": fmt.Sprint(tree.Depth())}
	if st.Placement.Format == filestore.FormatJSON {
		want["nodes"] = fmt.Sprint(tree.CountNodes())
	}
	for k, v := range want {
		if got.Properties[k] != v {
			t.Fatalf("%s %q: %s = %q, want %q", path, body, k, got.Properties[k], v)
		}
	}
	return st.Docs != nil
}

// refTree is the tree of a JSON (lines unset) or JSON Lines body as
// GEMMS inference builds it step by step: each value's whole subtree
// first (refNode), then merged into its parent's child of the same
// name and kind (refMerge). The merge in place is held to it.
func refTree(body []byte, lines bool) *TreeNode {
	if !lines {
		var v any
		_ = json.Unmarshal(body, &v)
		return refNode("$", v)
	}
	root := &TreeNode{Name: "$", Kind: "array"}
	for _, line := range strings.Split(string(body), "\n") {
		var v any
		if line = strings.TrimSpace(line); line != "" && json.Unmarshal([]byte(line), &v) == nil {
			refMerge(root, refNode("item", v))
		}
	}
	return root
}

// refNode is v's subtree: an object's keys in key order, an array's
// element structures merged into one.
func refNode(name string, v any) *TreeNode {
	switch x := v.(type) {
	case map[string]any:
		n := &TreeNode{Name: name, Kind: "object"}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			n.Children = append(n.Children, refNode(k, x[k]))
		}
		return n
	case []any:
		n := &TreeNode{Name: name, Kind: "array"}
		for _, el := range x {
			refMerge(n, refNode("item", el))
		}
		return n
	}
	return &TreeNode{Name: name, Kind: "value"}
}

// refMerge adds child to parent, merging it into an existing child of
// the same name and kind.
func refMerge(parent, child *TreeNode) {
	for _, existing := range parent.Children {
		if existing.Name == child.Name && existing.Kind == child.Kind {
			for _, gc := range child.Children {
				refMerge(existing, gc)
			}
			return
		}
	}
	parent.Children = append(parent.Children, child)
}

// dumpTree renders a tree as nested name:kind lists.
func dumpTree(n *TreeNode) string {
	if n == nil {
		return "<nil>"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:%s", n.Name, n.Kind)
	if len(n.Children) > 0 {
		sb.WriteString("[")
		for i, c := range n.Children {
			if i > 0 {
				sb.WriteString(" ")
			}
			sb.WriteString(dumpTree(c))
		}
		sb.WriteString("]")
	}
	return sb.String()
}

// genBody turns data into a JSON Lines (.jsonl) or JSON (.json) body:
// documents with and without an "_id" of each kind, nested objects and
// arrays, null fields, blank lines, CRLF ends, a missing last newline,
// a top-level array or a single object, now and then a line that is
// not an object.
func genBody(data []byte) (path string, body []byte) {
	pos := 0
	next := func(n int) int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1]) % n
	}
	keys := []string{"a", "b", "kind", "tags", "at"}
	var value func(depth int) any
	value = func(depth int) any {
		switch k := next(8); {
		case k == 0:
			return nil
		case k == 1:
			return float64(next(5)) - 1.5
		case k == 2:
			return fmt.Sprint("s", next(4))
		case k == 3:
			return next(2) == 1
		case k <= 5 && depth < 3:
			o := map[string]any{}
			for i := next(4); i > 0; i-- {
				o[keys[next(len(keys))]] = value(depth + 1)
			}
			return o
		case depth < 3:
			a := []any{}
			for i := next(4); i > 0; i-- {
				a = append(a, value(depth+1))
			}
			return a
		}
		return "leaf"
	}
	ids := []any{"x1", 7.0, "", nil, "x1", "y2"}
	doc := func() any {
		if next(16) == 0 {
			return []any{nil, 1.0, "s", []any{}}[next(4)]
		}
		d := map[string]any{}
		for i := next(5); i > 0; i-- {
			d[keys[next(len(keys))]] = value(1)
		}
		if k := next(len(ids) + 2); k < len(ids) {
			d["_id"] = ids[k]
		}
		return d
	}
	n := 1 + next(12)
	var docs []string
	for i := 0; i < n; i++ {
		b, _ := json.Marshal(doc())
		docs = append(docs, string(b))
	}
	switch next(3) {
	case 0:
		blank := []string{"", "  ", "\t", "\r"}
		var sb strings.Builder
		for i, d := range docs {
			for j := next(3); j > 0; j-- {
				sb.WriteString(blank[next(len(blank))] + "\n")
			}
			sb.WriteString(d)
			if i < len(docs)-1 || next(2) == 1 {
				sb.WriteString([]string{"\n", "\r\n"}[next(2)])
			}
		}
		return "raw/events.jsonl", []byte(sb.String())
	case 1:
		return "raw/events.json", []byte(" [" + strings.Join(docs, ",\n ") + "]\n")
	}
	return "raw/user.json", []byte("\n" + docs[0] + " ")
}

// The tree extraction describes from the documents placement decoded
// is the tree of a second decode of the raw bytes, with the same depth
// and node count: over hand-picked bodies that cover every shape, then
// a sweep of generated ones.
func TestDocumentTreeMatchesRawDecode(t *testing.T) {
	for _, c := range []struct {
		path, body string
		placed     bool
	}{
		{"raw/e.jsonl", `{"a":1}` + "\n" + `{"b":{"c":[1,{"d":null}]}}` + "\n", true},
		{"raw/e.jsonl", `{"_id":"k","a":1}` + "\n" + `{"_id":3,"a":{"x":1}}` + "\n" + `{"_id":"","a":[]}` + "\n" + `{"_id":null}`, true},
		{"raw/e.jsonl", "\n  \r\n" + `{"a":null}` + "\r\n\r\n" + `{"a":{"b":null}}` + "\r\n", true},
		{"raw/e.jsonl", `{"a":[[1],[{"b":2}],{"c":3}]}` + "\n" + `{"a":[[{"b":{"z":1}}]]}`, true},
		{"raw/e.jsonl", `{"a":1}` + "\nnull\n", false},
		{"raw/e.jsonl", "1\n\"s\"\n", false},
		{"raw/e.json", `[{"a":1},{"_id":"e-1","b":[1,2]},{"a":{"c":null}}]`, true},
		{"raw/e.json", " \r\n\t" + `{"_id":5,"a":{"b":[{"c":1},{"d":2}]}}` + "\n", true},
		{"raw/e.json", `[{"a":1}]`, true},
		{"raw/e.json", `[]`, false},
		{"raw/e.json", `[{"a":1},null]`, false},
		{"raw/e.json", `{"a":1`, false},
	} {
		if placed := checkDocumentTree(t, c.path, []byte(c.body)); placed != c.placed {
			t.Errorf("%s %q: placed %v, want %v", c.path, c.body, placed, c.placed)
		}
	}
	placed := 0
	for seed := 0; seed < 3000; seed++ {
		data := make([]byte, 256)
		x := uint32(seed*2654435761 + 1)
		for i := range data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = byte(x)
		}
		path, body := genBody(data)
		if checkDocumentTree(t, path, body) {
			placed++
		}
	}
	if placed < 1000 {
		t.Errorf("%d of 3000 generated bodies decoded to documents, want most", placed)
	}
}

func FuzzDocumentTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4})
	f.Add([]byte("\x07\x02\x05\x04\x03\x06\x01\x00\x07\x05\x04\x02\x06\x03\x01\x02\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path, body := genBody(data)
		checkDocumentTree(t, path, body)
	})
}
