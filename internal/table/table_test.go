package table

import (
	"errors"
	"strings"
	"testing"
)

func mustTable(t *testing.T, csvText string) *Table {
	t.Helper()
	tbl, err := ParseCSV("t", csvText)
	if err != nil {
		t.Fatalf("ParseCSV: %v", err)
	}
	return tbl
}

const sampleCSV = `id,name,age,score,active,joined
1,alice,30,9.5,true,2020-01-02
2,bob,25,7.25,false,2021-03-04
3,carol,41,8.0,true,2019-11-30
4,dave,,6.5,true,2022-05-06
`

func TestParseCSVBasics(t *testing.T) {
	tbl := mustTable(t, sampleCSV)
	if tbl.NumCols() != 6 {
		t.Fatalf("NumCols = %d, want 6", tbl.NumCols())
	}
	if tbl.NumRows() != 4 {
		t.Fatalf("NumRows = %d, want 4", tbl.NumRows())
	}
	want := []string{"id", "name", "age", "score", "active", "joined"}
	got := tbl.ColumnNames()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("column %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTypeInference(t *testing.T) {
	tbl := mustTable(t, sampleCSV)
	cases := map[string]Kind{
		"id":     KindInt,
		"name":   KindString,
		"age":    KindInt, // one null tolerated
		"score":  KindFloat,
		"active": KindBool,
		"joined": KindTime,
	}
	for name, want := range cases {
		c, err := tbl.Column(name)
		if err != nil {
			t.Fatalf("Column(%q): %v", name, err)
		}
		if c.Kind != want {
			t.Errorf("column %q kind = %v, want %v", name, c.Kind, want)
		}
	}
}

func TestInferKindTolerance(t *testing.T) {
	// 97 ints + 2 strings + 1 null: still int under the 95% rule.
	cells := make([]string, 0, 100)
	for i := 0; i < 97; i++ {
		cells = append(cells, "42")
	}
	cells = append(cells, "x", "y", "")
	if k := InferKind(cells); k != KindInt {
		t.Errorf("InferKind = %v, want int", k)
	}
	// 50/50 should fall back to string.
	mixed := append(make([]string, 0), "1", "2", "a", "b")
	if k := InferKind(mixed); k != KindString {
		t.Errorf("InferKind mixed = %v, want string", k)
	}
	if k := InferKind([]string{"", "NULL", "n/a"}); k != KindUnknown {
		t.Errorf("InferKind all-null = %v, want unknown", k)
	}
}

func TestColumnNullsAndDistinct(t *testing.T) {
	c := &Column{Name: "x", Cells: []string{"a", "", "a", "NULL", "b", "n/a"}}
	if got := c.NullCount(); got != 3 {
		t.Errorf("NullCount = %d, want 3", got)
	}
	d := c.Distinct()
	if len(d) != 2 {
		t.Errorf("Distinct size = %d, want 2", len(d))
	}
	ds := c.DistinctSlice()
	if len(ds) != 2 || ds[0] != "a" || ds[1] != "b" {
		t.Errorf("DistinctSlice = %v, want [a b]", ds)
	}
}

func TestCandidateKey(t *testing.T) {
	key := &Column{Name: "id", Cells: []string{"1", "2", "3", "4"}}
	if !key.IsCandidateKey(0.9) {
		t.Error("unique column should be a candidate key")
	}
	dup := &Column{Name: "id", Cells: []string{"1", "2", "2", "4"}}
	if dup.IsCandidateKey(0.9) {
		t.Error("column with duplicates should not be a candidate key")
	}
	sparse := &Column{Name: "id", Cells: []string{"1", "", "", ""}}
	if sparse.IsCandidateKey(0.9) {
		t.Error("mostly-null column should not be a candidate key")
	}
}

func TestAppendRowAndRaggedDetection(t *testing.T) {
	tbl := mustTable(t, "a,b\n1,2\n")
	if err := tbl.AppendRow([]string{"3", "4"}); err != nil {
		t.Fatalf("AppendRow: %v", err)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tbl.NumRows())
	}
	if err := tbl.AppendRow([]string{"just-one"}); !errors.Is(err, ErrRagged) {
		t.Errorf("AppendRow ragged err = %v, want ErrRagged", err)
	}
	if _, err := FromRows("t", []string{"a"}, [][]string{{"1", "2"}}); !errors.Is(err, ErrRagged) {
		t.Errorf("FromRows ragged err = %v, want ErrRagged", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tbl := mustTable(t, "a\nx\n")
	cl := tbl.Clone()
	cl.Columns[0].Cells[0] = "mutated"
	cl.Meta["k"] = "v"
	if tbl.Columns[0].Cells[0] != "x" {
		t.Error("Clone shares cell storage with original")
	}
	if _, ok := tbl.Meta["k"]; ok {
		t.Error("Clone shares Meta with original")
	}
}

func TestProfileNumeric(t *testing.T) {
	tbl := mustTable(t, "v\n1\n2\n30\nNA\n")
	c, _ := tbl.Column("v")
	if c.Name != "v" || c.Kind != KindInt || c.Len() != 4 || c.NullCount() != 1 {
		t.Errorf("column = %s %v len=%d nulls=%d, want v int len=4 nulls=1",
			c.Name, c.Kind, c.Len(), c.NullCount())
	}
	if d := len(c.DistinctSlice()); d != 3 {
		t.Errorf("distinct = %d, want 3", d)
	}
	if m := c.MeanLen(); m != 4.0/3 {
		t.Errorf("MeanLen = %v, want %v", m, 4.0/3)
	}
}

func TestProfileStringColumn(t *testing.T) {
	tbl := mustTable(t, "s\nfoo\nbar\nfoo\n")
	c, _ := tbl.Column("s")
	if d := len(c.DistinctSlice()); d != 2 {
		t.Errorf("distinct = %d, want 2", d)
	}
	if m := c.MeanLen(); m != 3 {
		t.Errorf("MeanLen = %v, want 3", m)
	}
}

func TestColumnMeanLenAllNull(t *testing.T) {
	tbl := mustTable(t, "s\nNA\n-\n")
	if m := tbl.Columns[0].MeanLen(); m != 0 {
		t.Errorf("MeanLen of an all-null column = %v, want 0", m)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := mustTable(t, sampleCSV)
	out := ToCSV(tbl)
	back, err := ParseCSV("t", out)
	if err != nil {
		t.Fatalf("round trip parse: %v", err)
	}
	if back.NumRows() != tbl.NumRows() || back.NumCols() != tbl.NumCols() {
		t.Fatalf("round trip shape changed: %v vs %v", back, tbl)
	}
	for j, c := range tbl.Columns {
		for i, v := range c.Cells {
			if back.Columns[j].Cells[i] != v {
				t.Fatalf("cell (%d,%d) = %q, want %q", i, j, back.Columns[j].Cells[i], v)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ParseCSV("t", ""); err == nil {
		t.Error("empty csv should error")
	}
	if _, err := ParseCSV("t", "a,b\n1\n"); !errors.Is(err, ErrRagged) {
		t.Errorf("ragged csv err = %v, want ErrRagged", err)
	}
}

func TestStringRendering(t *testing.T) {
	tbl := mustTable(t, "a,b\n1,2\n")
	if got := tbl.String(); !strings.Contains(got, "2 cols") || !strings.Contains(got, "1 rows") {
		t.Errorf("String() = %q", got)
	}
}
