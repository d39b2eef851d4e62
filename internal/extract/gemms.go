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
	// Table is the parsed table for tabular formats (callers may drop
	// it after registering the dataset).
	Table *table.Table
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

// ExtractParsed is Extract for a caller that may already hold the table
// a CSV object parses into (nil: parse it here), as ingest does once
// placement has parsed it; t is not consulted for any other format.
func ExtractParsed(path string, data []byte, t *table.Table) (*Metadata, error) {
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
		md.Table = t
		md.Properties["rows"] = fmt.Sprintf("%d", t.NumRows())
		md.Properties["columns"] = fmt.Sprintf("%d", t.NumCols())
		md.Properties["header"] = strings.Join(t.ColumnNames(), ",")
	case filestore.FormatJSON:
		tree, err := JSONTree(data)
		if err != nil {
			return nil, fmt.Errorf("extract: %s: %w", path, err)
		}
		md.Tree = tree
		md.Properties["depth"] = fmt.Sprintf("%d", tree.Depth())
		md.Properties["nodes"] = fmt.Sprintf("%d", tree.CountNodes())
	case filestore.FormatJSONL:
		tree, err := JSONLTree(data)
		if err != nil {
			return nil, fmt.Errorf("extract: %s: %w", path, err)
		}
		md.Tree = tree
		md.Properties["depth"] = fmt.Sprintf("%d", tree.Depth())
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

// JSONTree infers the structure tree of a JSON document breadth-first,
// the GEMMS tree-inference algorithm: object keys become child nodes,
// arrays contribute the union of their element structures.
func JSONTree(data []byte) (*TreeNode, error) {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("json tree: %w", err)
	}
	return jsonNode("$", v), nil
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
		mergeChild(root, jsonNode("item", v))
	}
	return root, nil
}

func jsonNode(name string, v any) *TreeNode {
	switch x := v.(type) {
	case map[string]any:
		n := &TreeNode{Name: name, Kind: "object"}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			n.Children = append(n.Children, jsonNode(k, x[k]))
		}
		return n
	case []any:
		n := &TreeNode{Name: name, Kind: "array"}
		for _, el := range x {
			mergeChild(n, jsonNode("item", el))
		}
		return n
	default:
		return &TreeNode{Name: name, Kind: "value"}
	}
}

// mergeChild adds child to parent, merging with an existing child of
// the same name (union of structures, as array elements share shape).
func mergeChild(parent, child *TreeNode) {
	for _, existing := range parent.Children {
		if existing.Name == child.Name && existing.Kind == child.Kind {
			for _, gc := range child.Children {
				mergeChild(existing, gc)
			}
			return
		}
	}
	parent.Children = append(parent.Children, child)
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
			} else {
				mergeChild(stack[len(stack)-1], n)
				// mergeChild may have merged into an existing node; find it.
				parent := stack[len(stack)-1]
				for _, c := range parent.Children {
					if c.Name == n.Name && c.Kind == n.Kind {
						n = c
						break
					}
				}
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
