// Package extract implements the ingestion-tier metadata extraction
// function of the survey (Sec. 5.1) with one representative per system
// family: GEMMS-style format detection plus structural metadata parsing
// (tables for CSV, trees for JSON/XML) and DATAMARAN-style unsupervised
// structure-template extraction from multi-line log files.
package extract

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"golake/internal/storage/docstore"
	"golake/internal/storage/filestore"
	"golake/internal/storage/polystore"
	"golake/internal/table"
)

// TreeNode is one node of the structural metadata tree GEMMS infers
// from semi-structured files: JSON objects/arrays or XML elements.
type TreeNode struct {
	Name     string
	Kind     string // "object", "array", "value", "element"
	Children []*TreeNode
}

// Depth returns the height of the tree rooted at n.
func (n *TreeNode) Depth() int {
	if len(n.Children) == 0 {
		return 1
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// CountNodes returns the total number of nodes in the tree.
func (n *TreeNode) CountNodes() int {
	total := 1
	for _, c := range n.Children {
		total += c.CountNodes()
	}
	return total
}

// Metadata is the extraction result for one ingested object, mirroring
// the GEMMS metamodel's separation of structure, properties and
// semantics.
type Metadata struct {
	Path   string
	Format filestore.Format
	// Properties are key-value metadata (file size, header fields, ...).
	Properties map[string]string
	// Schema is set for tabular formats.
	Schema []Column
	// Tree is set for hierarchical formats.
	Tree *TreeNode
	// SemanticTags are ontology-term annotations; extraction leaves
	// them empty, enrichment fills them in later (Sec. 6.4).
	SemanticTags []string
}

// Column is one column of a tabular object's schema: its name and
// inferred kind, what the metamodel records of it.
type Column struct {
	Name string
	Kind table.Kind
}

// Extract runs GEMMS-style extraction: detect the format, then dispatch
// the matching parser.
func Extract(path string, data []byte) (*Metadata, error) {
	return ExtractParsed(path, data, nil)
}

// ExtractParsed is Extract for a caller that holds the object as
// placement prepared it (nil: parse it here), as ingest does: a CSV's
// table and a JSON or JSON Lines object's documents are described as
// placement parsed them, and the bytes are parsed again only when
// placement left the object file-only. st is only read.
func ExtractParsed(path string, data []byte, st *polystore.Staged) (*Metadata, error) {
	var t *table.Table
	var docs []docstore.Doc
	if st != nil {
		t, docs = st.Table, st.Docs
	}
	format := filestore.Detect(path, data)
	md := &Metadata{
		Path:   path,
		Format: format,
		Properties: map[string]string{
			"size":   fmt.Sprintf("%d", len(data)),
			"format": string(format),
		},
	}
	switch format {
	case filestore.FormatCSV:
		if t == nil {
			var err error
			if t, err = table.ReadCSV(polystore.DerivedName(path), data); err != nil {
				return nil, fmt.Errorf("extract: %s: %w", path, err)
			}
		}
		md.Schema = make([]Column, len(t.Columns))
		for i, c := range t.Columns {
			md.Schema[i] = Column{Name: c.Name, Kind: c.Kind}
		}
		md.Properties["rows"] = fmt.Sprintf("%d", t.NumRows())
		md.Properties["columns"] = fmt.Sprintf("%d", t.NumCols())
		md.Properties["header"] = strings.Join(t.ColumnNames(), ",")
	case filestore.FormatJSON, filestore.FormatJSONL:
		tree, err := jsonTree(data, docs, format == filestore.FormatJSONL)
		if err != nil {
			return nil, fmt.Errorf("extract: %s: %w", path, err)
		}
		md.Tree = tree
		md.Properties["depth"] = fmt.Sprintf("%d", tree.Depth())
		if format == filestore.FormatJSON {
			md.Properties["nodes"] = fmt.Sprintf("%d", tree.CountNodes())
		}
	case filestore.FormatXML:
		tree, err := XMLTree(data)
		if err != nil {
			return nil, fmt.Errorf("extract: %s: %w", path, err)
		}
		md.Tree = tree
		md.Properties["depth"] = fmt.Sprintf("%d", tree.Depth())
	case filestore.FormatLog:
		templates := Datamaran(string(data), DefaultDatamaranConfig())
		md.Properties["templates"] = fmt.Sprintf("%d", len(templates))
	}
	return md, nil
}

// jsonTree is the structure tree of a JSON object (lines unset) or a
// JSON Lines one: built from the documents placement decoded from data,
// or from data itself when placement decoded none, the object being
// file-only. It is JSONTree's or JSONLTree's tree of data either way.
func jsonTree(data []byte, docs []docstore.Doc, lines bool) (*TreeNode, error) {
	switch {
	case docs == nil && lines:
		return JSONLTree(data)
	case docs == nil:
		return JSONTree(data)
	}
	if !lines && bytes.TrimLeft(data, " \t\r\n")[0] != '[' {
		// One document, not an array of them.
		root := &TreeNode{Name: "$", Kind: "object"}
		mergeInto(root, map[string]any(docs[0]))
		return root, nil
	}
	root := &TreeNode{Name: "$", Kind: "array"}
	for _, d := range docs {
		mergeValue(root, "item", map[string]any(d))
	}
	return root, nil
}

// JSONTree infers the structure tree of a JSON document, the GEMMS
// tree-inference algorithm: object keys become child nodes, arrays
// contribute the union of their element structures.
func JSONTree(data []byte) (*TreeNode, error) {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("json tree: %w", err)
	}
	root := &TreeNode{Name: "$", Kind: kindOf(v)}
	mergeInto(root, v)
	return root, nil
}

// JSONLTree merges the structure of every line of a JSON-lines file
// into one tree.
func JSONLTree(data []byte) (*TreeNode, error) {
	root := &TreeNode{Name: "$", Kind: "array"}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var v any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			return nil, fmt.Errorf("jsonl tree: %w", err)
		}
		mergeValue(root, "item", v)
	}
	return root, nil
}

// mergeValue merges the structure of the JSON value v into parent's
// child of the given name and of v's kind, adding that child when
// parent has none. A node lists its children in the order they first
// appear, an object's new keys in key order: the tree that building
// each value's whole subtree and then merging it would give, without
// building the subtree.
func mergeValue(parent *TreeNode, name string, v any) {
	kind := kindOf(v)
	n := find(parent, name, kind)
	if n == nil {
		n = &TreeNode{Name: name, Kind: kind}
		parent.Children = append(parent.Children, n)
	}
	mergeInto(n, v)
}

// mergeInto merges the structure of v into n, v's own node. An object's
// keys n already has a child for add no child to n, so they merge in
// map order; the others then add theirs in key order.
func mergeInto(n *TreeNode, v any) {
	switch x := v.(type) {
	case map[string]any:
		var added []string
		for k, fv := range x {
			if c := find(n, k, kindOf(fv)); c != nil {
				mergeInto(c, fv)
			} else {
				added = append(added, k)
			}
		}
		sort.Strings(added)
		for _, k := range added {
			mergeValue(n, k, x[k])
		}
	case []any:
		for _, el := range x {
			mergeValue(n, "item", el)
		}
	}
}

// kindOf is the tree node kind of a JSON value.
func kindOf(v any) string {
	switch v.(type) {
	case map[string]any:
		return "object"
	case []any:
		return "array"
	}
	return "value"
}

// find returns parent's child of the given name and kind, or nil.
func find(parent *TreeNode, name, kind string) *TreeNode {
	for _, c := range parent.Children {
		if c.Name == name && c.Kind == kind {
			return c
		}
	}
	return nil
}

// XMLTree infers the element structure of an XML document.
func XMLTree(data []byte) (*TreeNode, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var stack []*TreeNode
	var root *TreeNode
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xml tree: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &TreeNode{Name: t.Name.Local, Kind: "element"}
			if len(stack) == 0 {
				root = n
			} else if c := find(stack[len(stack)-1], n.Name, n.Kind); c != nil {
				n = c
			} else {
				stack[len(stack)-1].Children = append(stack[len(stack)-1].Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xml tree: no root element")
	}
	return root, nil
}
