package extract

import (
	"fmt"
	"strings"
	"testing"

	"golake/internal/sketch"
	"golake/internal/storage/filestore"
	"golake/internal/workload"
)

func TestExtractCSV(t *testing.T) {
	md, err := Extract("raw/orders.csv", []byte("id,total,city\n1,9.5,berlin\n2,3.0,paris\n"))
	if err != nil {
		t.Fatal(err)
	}
	if md.Format != filestore.FormatCSV {
		t.Errorf("format = %v", md.Format)
	}
	if len(md.Schema) != 3 {
		t.Fatalf("schema columns = %d", len(md.Schema))
	}
	if md.Schema[0].Name != "id" || !md.Schema[0].Kind.Numeric() {
		t.Errorf("schema[0] = %+v", md.Schema[0])
	}
	if md.Properties["rows"] != "2" || md.Properties["columns"] != "3" {
		t.Errorf("properties = %v", md.Properties)
	}
	if md.Table == nil || md.Table.Name != "orders" {
		t.Errorf("table = %v", md.Table)
	}
}

func TestExtractJSONTree(t *testing.T) {
	data := []byte(`{"user":{"name":"a","tags":["x","y"]},"active":true}`)
	md, err := Extract("raw/user.json", data)
	if err != nil {
		t.Fatal(err)
	}
	if md.Tree == nil {
		t.Fatal("no tree")
	}
	paths := md.Tree.Paths()
	want := []string{"/$", "/$/active", "/$/user", "/$/user/name", "/$/user/tags", "/$/user/tags/item"}
	if len(paths) != len(want) {
		t.Fatalf("paths = %v", paths)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Errorf("path %d = %q, want %q", i, paths[i], want[i])
		}
	}
	if md.Tree.Depth() != 4 { // $ -> user -> tags -> item
		t.Errorf("depth = %d, want 4", md.Tree.Depth())
	}
}

func TestJSONLTreeMergesLineStructures(t *testing.T) {
	data := []byte("{\"a\":1}\n{\"a\":2,\"b\":\"x\"}\n")
	tree, err := JSONLTree(data)
	if err != nil {
		t.Fatal(err)
	}
	// One merged "item" child with fields a and b.
	if len(tree.Children) != 1 {
		t.Fatalf("children = %d", len(tree.Children))
	}
	item := tree.Children[0]
	if len(item.Children) != 2 {
		t.Errorf("item fields = %d, want 2 (merged)", len(item.Children))
	}
}

func TestXMLTree(t *testing.T) {
	data := []byte(`<catalog><book><title/><author/></book><book><title/></book></catalog>`)
	tree, err := XMLTree(data)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Name != "catalog" {
		t.Errorf("root = %q", tree.Name)
	}
	// The two <book> elements merge into one structural child.
	if len(tree.Children) != 1 || tree.Children[0].Name != "book" {
		t.Fatalf("children = %+v", tree.Children)
	}
	if len(tree.Children[0].Children) != 2 {
		t.Errorf("book fields = %d, want 2", len(tree.Children[0].Children))
	}
	if _, err := XMLTree([]byte("")); err == nil {
		t.Error("empty xml should error")
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := Extract("bad.csv", []byte("a,b\n1\n")); err == nil {
		t.Error("ragged csv should error")
	}
	if _, err := Extract("bad.json", []byte("{nope")); err == nil {
		t.Error("bad json should error")
	}
}

func TestDatamaranRecoversTemplates(t *testing.T) {
	gl := workload.GenerateLog(workload.LogSpec{Templates: 4, Records: 300, NoiseRate: 0.05, Seed: 3})
	got := Datamaran(gl.Content, DefaultDatamaranConfig())
	if len(got) == 0 {
		t.Fatal("no templates extracted")
	}
	// Ground truth: generalized pattern sequences of each skeleton,
	// realized from the actual log lines. Build them by generalizing
	// the first record of each template ID.
	truth := truthPatterns(gl)
	rec := TemplateRecovery(got, truth)
	if rec < 0.75 {
		t.Errorf("template recovery = %.2f, want >= 0.75 (extracted %d templates)", rec, len(got))
	}
	// Coverage sanity: total coverage cannot exceed 1.
	var total float64
	for _, tpl := range got {
		total += tpl.Coverage
		if tpl.Records <= 0 {
			t.Errorf("template with zero records: %+v", tpl)
		}
	}
	if total > 1.0001 {
		t.Errorf("total coverage = %v > 1", total)
	}
}

// truthPatterns reconstructs the expected generalized pattern sequences
// by rendering each template once and generalizing.
func truthPatterns(gl *workload.GeneratedLog) [][]string {
	lines := strings.Split(strings.TrimRight(gl.Content, "\n"), "\n")
	var truth [][]string
	seen := map[int]bool{}
	li := 0
	for _, tid := range gl.RecordTemplates {
		tpl := gl.Templates[tid]
		if !seen[tid] {
			var pats []string
			for j := range tpl.Lines {
				pats = append(pats, sketch.RegexPattern(lines[li+j]))
			}
			truth = append(truth, pats)
			seen[tid] = true
		}
		li += len(tpl.Lines)
		// Skip a potential noise line.
		for li < len(lines) && strings.HasPrefix(lines[li], "# noise") {
			li++
		}
	}
	return truth
}

func TestDatamaranEmptyAndNoise(t *testing.T) {
	if got := Datamaran("", DefaultDatamaranConfig()); got != nil {
		t.Errorf("empty input = %v", got)
	}
	// Pure noise with no repeating structure: high threshold filters all.
	noise := "aaa bbb\n123-456\nzzz qqq 42\n"
	got := Datamaran(noise, DatamaranConfig{MaxRecordSpan: 2, CoverageThreshold: 0.9})
	if len(got) != 0 {
		t.Errorf("noise extraction = %+v", got)
	}
}

func TestDatamaranSingleTemplate(t *testing.T) {
	log := strings.Repeat("INFO user=alice action=login code=42\n", 50)
	got := Datamaran(log, DefaultDatamaranConfig())
	if len(got) != 1 {
		t.Fatalf("templates = %d, want 1", len(got))
	}
	if got[0].Coverage < 0.99 {
		t.Errorf("coverage = %v, want ~1", got[0].Coverage)
	}
	if got[0].Records != 50 {
		t.Errorf("records = %d, want 50", got[0].Records)
	}
}

func TestTemplateRecoveryEdge(t *testing.T) {
	if got := TemplateRecovery(nil, nil); got != 0 {
		t.Errorf("empty recovery = %v", got)
	}
}

func TestExtractParsedDescribesTheCallersTable(t *testing.T) {
	path, data := "raw/orders.csv", []byte("id,total,city\n1,9.5,berlin\n2,3.0,paris\n")
	want, err := Extract(path, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtractParsed(path, data, want.Table)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != want.Table {
		t.Error("ExtractParsed parsed again instead of describing the table it was given")
	}
	// Rendered, because a string column's moments are NaN.
	if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
		t.Errorf("ExtractParsed = %s\nExtract       = %s", g, w)
	}
	// The table is for CSV objects only; a tree format ignores it.
	tree, err := ExtractParsed("raw/user.json", []byte(`{"a":1}`), want.Table)
	if err != nil || tree.Table != nil || tree.Tree == nil {
		t.Errorf("json with a table: %+v, %v", tree, err)
	}
}
