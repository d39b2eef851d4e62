package workload

import (
	"encoding/json"
	"strings"
	"testing"

	"golake/internal/sketch"
	"golake/internal/table"
)

func TestGenerateCorpusShape(t *testing.T) {
	spec := DefaultSpec()
	c := GenerateCorpus(spec)
	if len(c.Tables) != spec.NumTables {
		t.Fatalf("tables = %d, want %d", len(c.Tables), spec.NumTables)
	}
	for _, tbl := range c.Tables {
		if tbl.NumRows() != spec.RowsPerTable {
			t.Errorf("%s rows = %d, want %d", tbl.Name, tbl.NumRows(), spec.RowsPerTable)
		}
		if tbl.NumCols() != 3+spec.ExtraCols {
			t.Errorf("%s cols = %d, want %d", tbl.Name, tbl.NumCols(), 3+spec.ExtraCols)
		}
	}
}

func TestCorpusGroundTruthSymmetricAndGrouped(t *testing.T) {
	c := GenerateCorpus(CorpusSpec{
		NumTables: 12, JoinGroups: 3, RowsPerTable: 50,
		ExtraCols: 1, KeyVocab: 100, KeySample: 50, Seed: 1,
	})
	// 12 tables in 3 groups of 4 -> C(4,2)*3 = 18 joinable pairs.
	if len(c.Joinable) != 18 {
		t.Errorf("joinable pairs = %d, want 18", len(c.Joinable))
	}
	for p := range c.Joinable {
		if c.GroupOf[p.A] != c.GroupOf[p.B] {
			t.Errorf("joinable pair crosses groups: %v", p)
		}
	}
}

func TestCorpusKeyOverlapMatchesGroundTruth(t *testing.T) {
	c := GenerateCorpus(CorpusSpec{
		NumTables: 6, JoinGroups: 2, RowsPerTable: 80,
		ExtraCols: 0, KeyVocab: 100, KeySample: 60, NoiseRate: 0, Seed: 9,
	})
	// Same-group tables must share key values; different groups must not.
	var sameOverlap, crossOverlap int
	for i := 0; i < len(c.Tables); i++ {
		for j := i + 1; j < len(c.Tables); j++ {
			a, b := c.Tables[i], c.Tables[j]
			ka, _ := a.Column(c.KeyColumn[a.Name])
			kb, _ := b.Column(c.KeyColumn[b.Name])
			ids := sketch.NewDict()
			ov := sketch.Overlap(ids.Set(ka.DistinctSlice()), ids.Set(kb.DistinctSlice()))
			if c.Joinable[NewPair(a.Name, b.Name)] {
				sameOverlap += ov
				if ov == 0 {
					t.Errorf("joinable pair %s/%s has zero key overlap", a.Name, b.Name)
				}
			} else {
				crossOverlap += ov
				if ov != 0 {
					t.Errorf("non-joinable pair %s/%s overlaps: %d", a.Name, b.Name, ov)
				}
			}
		}
	}
	if sameOverlap == 0 {
		t.Error("no same-group overlap at all")
	}
}

func TestCorpusDeterminism(t *testing.T) {
	s := DefaultSpec()
	a := GenerateCorpus(s)
	b := GenerateCorpus(s)
	for i := range a.Tables {
		if table.ToCSV(a.Tables[i]) != table.ToCSV(b.Tables[i]) {
			t.Fatalf("corpus not deterministic at table %d", i)
		}
	}
}

func TestPrecisionRecall(t *testing.T) {
	truth := map[Pair]bool{NewPair("a", "b"): true, NewPair("c", "d"): true}
	p, r := PrecisionRecall([]Pair{NewPair("a", "b"), NewPair("a", "c")}, truth)
	if p != 0.5 || r != 0.5 {
		t.Errorf("P/R = %v/%v, want 0.5/0.5", p, r)
	}
	p, r = PrecisionRecall(nil, truth)
	if p != 0 || r != 0 {
		t.Errorf("empty predictions P/R = %v/%v", p, r)
	}
	p, r = PrecisionRecall(nil, map[Pair]bool{})
	if p != 1 || r != 1 {
		t.Errorf("empty/empty P/R = %v/%v, want 1/1", p, r)
	}
	// Duplicates count once.
	p, _ = PrecisionRecall([]Pair{NewPair("a", "b"), NewPair("b", "a")}, truth)
	if p != 1 {
		t.Errorf("dup precision = %v, want 1", p)
	}
}

func TestTopKQuality(t *testing.T) {
	queries := []string{"q1"}
	results := map[string][]string{"q1": {"r1", "r2", "r3"}}
	rel := func(q, r string) bool { return r == "r1" || r == "r3" }
	tot := func(q string) int { return 2 }
	p, r := TopKQuality(queries, results, 2, rel, tot)
	if p != 0.5 || r != 0.5 {
		t.Errorf("P@2/R@2 = %v/%v, want 0.5/0.5", p, r)
	}
	p, r = TopKQuality(nil, results, 2, rel, tot)
	if p != 0 || r != 0 {
		t.Errorf("no queries = %v/%v", p, r)
	}
}

func TestDirtyInjection(t *testing.T) {
	tbl, _ := table.ParseCSV("t", "a,b\nfoo,bar\nbaz,qux\nquu,corge\n")
	dirty, refs := Dirty(tbl, DirtySpec{NullRate: 0.5, TypoRate: 0.5, Seed: 3})
	if len(refs) == 0 {
		t.Fatal("no cells dirtied at 50% rates")
	}
	changed := 0
	for ci, col := range dirty.Columns {
		for ri := range col.Cells {
			if col.Cells[ri] != tbl.Columns[ci].Cells[ri] {
				changed++
			}
		}
	}
	if changed != len(refs) {
		t.Errorf("changed cells = %d, ground truth = %d", changed, len(refs))
	}
	// Original untouched.
	if tbl.Columns[0].Cells[0] != "foo" {
		t.Error("Dirty mutated the input table")
	}
}

func TestGenerateLogGroundTruth(t *testing.T) {
	spec := LogSpec{Templates: 3, Records: 100, NoiseRate: 0.1, Seed: 5}
	gl := GenerateLog(spec)
	if len(gl.Templates) != 3 {
		t.Fatalf("templates = %d", len(gl.Templates))
	}
	if len(gl.RecordTemplates) != 100 {
		t.Fatalf("record count = %d", len(gl.RecordTemplates))
	}
	lines := strings.Split(strings.TrimRight(gl.Content, "\n"), "\n")
	if len(lines) < 100 {
		t.Errorf("too few lines: %d", len(lines))
	}
	// All three templates should appear.
	seen := map[int]bool{}
	for _, tid := range gl.RecordTemplates {
		seen[tid] = true
	}
	if len(seen) != 3 {
		t.Errorf("templates used = %v", seen)
	}
	// Determinism.
	gl2 := GenerateLog(spec)
	if gl2.Content != gl.Content {
		t.Error("log generation not deterministic")
	}
}

func TestGenerateVersions(t *testing.T) {
	spec := SchemaVersionSpec{Versions: 6, DocsPer: 5, Seed: 11}
	vd := GenerateVersions(spec)
	if len(vd.Versions) != 6 || len(vd.Ops) != 5 {
		t.Fatalf("versions/ops = %d/%d", len(vd.Versions), len(vd.Ops))
	}
	// Every doc is valid JSON and has exactly the fields of its version.
	for v, docs := range vd.Versions {
		for _, raw := range docs {
			var m map[string]any
			if err := json.Unmarshal([]byte(raw), &m); err != nil {
				t.Fatalf("version %d doc invalid JSON: %v", v, err)
			}
			if len(m) != len(vd.FieldsAt[v]) {
				t.Errorf("version %d doc fields = %d, want %d", v, len(m), len(vd.FieldsAt[v]))
			}
			for f := range m {
				if !vd.FieldsAt[v][f] {
					t.Errorf("version %d doc has unexpected field %q", v, f)
				}
			}
		}
	}
	// Ops are consistent with the field sets.
	for _, op := range vd.Ops {
		before, after := vd.FieldsAt[op.FromVersion], vd.FieldsAt[op.FromVersion+1]
		switch op.Kind {
		case "add":
			if before[op.Field] || !after[op.Field] {
				t.Errorf("bad add op %+v", op)
			}
		case "delete":
			if !before[op.Field] || after[op.Field] {
				t.Errorf("bad delete op %+v", op)
			}
		case "rename":
			if !before[op.Field] || after[op.Field] || !after[op.NewField] {
				t.Errorf("bad rename op %+v", op)
			}
		}
	}
}

func TestFormatPair(t *testing.T) {
	if got := FormatPair(NewPair("b", "a")); got != "a⋈b" {
		t.Errorf("FormatPair = %q", got)
	}
}
