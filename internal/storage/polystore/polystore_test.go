package polystore

import (
	"errors"
	"fmt"
	"testing"

	"golake/internal/storage/docstore"
	"golake/internal/storage/filestore"
	"golake/internal/table"
)

func newPoly(t *testing.T) *Poly {
	t.Helper()
	p, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRouteTable(t *testing.T) {
	cases := map[filestore.Format]Target{
		filestore.FormatCSV:    TargetRelational,
		filestore.FormatJSON:   TargetDocument,
		filestore.FormatJSONL:  TargetDocument,
		filestore.FormatXML:    TargetFile,
		filestore.FormatLog:    TargetFile,
		filestore.FormatBinary: TargetFile,
	}
	for f, want := range cases {
		if got := Route(f); got != want {
			t.Errorf("Route(%v) = %v, want %v", f, got, want)
		}
	}
}

func TestIngestCSVGoesRelational(t *testing.T) {
	p := newPoly(t)
	pl, err := p.Ingest("raw/orders.csv", []byte("id,total\n1,9.5\n2,3.25\n"))
	if err != nil {
		t.Fatal(err)
	}
	if pl.Target != TargetRelational || pl.TableName != "orders" {
		t.Fatalf("placement = %+v", pl)
	}
	tbl, err := p.Rel.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", tbl.NumRows())
	}
	// Raw bytes are kept too.
	if _, err := p.Files.Get("raw/orders.csv"); err != nil {
		t.Errorf("raw object missing: %v", err)
	}
}

func TestIngestJSONGoesDocument(t *testing.T) {
	p := newPoly(t)
	pl, err := p.Ingest("raw/event.json", []byte(`{"kind":"click","user":"u1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if pl.Target != TargetDocument || pl.Collection != "event" {
		t.Fatalf("placement = %+v", pl)
	}
	if got := len(p.Docs.Collection("event").Find(docstore.Filter{Path: "kind", Op: docstore.OpEq, Value: "click"})); got != 1 {
		t.Errorf("doc count = %d", got)
	}
}

func TestIngestJSONLAndArray(t *testing.T) {
	p := newPoly(t)
	if _, err := p.Ingest("raw/events.jsonl", []byte("{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n")); err != nil {
		t.Fatal(err)
	}
	if got := p.Docs.Collection("events").Len(); got != 3 {
		t.Errorf("jsonl docs = %d, want 3", got)
	}
	if _, err := p.Ingest("raw/batch.json", []byte(`[{"n":4},{"n":5}]`)); err != nil {
		t.Fatal(err)
	}
	if got := p.Docs.Collection("batch").Len(); got != 2 {
		t.Errorf("array docs = %d, want 2", got)
	}
}

func TestIngestUnparseableCSVFallsBackToFile(t *testing.T) {
	p := newPoly(t)
	pl, err := p.Ingest("raw/broken.csv", []byte("a,b\n1\n")) // ragged
	if err != nil {
		t.Fatal(err)
	}
	if pl.Target != TargetFile {
		t.Errorf("placement = %+v, want file fallback", pl)
	}
	if p.Rel.Has("broken") {
		t.Error("broken table should not be registered")
	}
	if _, err := p.Files.Get("raw/broken.csv"); err != nil {
		t.Error("raw bytes should still be stored")
	}
}

func TestPlacements(t *testing.T) {
	p := newPoly(t)
	_, _ = p.Ingest("b.csv", []byte("x,y\n1,2\n"))
	_, _ = p.Ingest("a.json", []byte(`{"k":1}`))
	pls := p.Placements()
	if len(pls) != 2 || pls[0].Path != "a.json" || pls[1].Path != "b.csv" {
		t.Errorf("Placements = %+v", pls)
	}
	if _, ok := p.PlacementOf("b.csv"); !ok {
		t.Error("PlacementOf miss")
	}
	if _, ok := p.PlacementOf("nope"); ok {
		t.Error("PlacementOf false hit")
	}
}

func TestRelStoreSelectPushdown(t *testing.T) {
	r := NewRelStore()
	tbl, _ := table.ParseCSV("people", "name,age\nalice,30\nbob,25\ncarol,41\n")
	r.Create(tbl)
	cur, err := r.ScanWhere("people",
		[]CellPredicate{{Column: "age", Match: func(c string) bool { return c > "25" }}},
		[]string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if got := cursorRows(cur); len(got) != 2 || len(got[0]) != 1 {
		t.Errorf("ScanWhere rows = %v, want 2 rows of 1 cell", got)
	}
	if _, err := r.ScanWhere("ghost", nil, nil); !errors.Is(err, ErrNoTable) {
		t.Errorf("ScanWhere missing = %v", err)
	}
}

func TestRelStoreSelectWhere(t *testing.T) {
	r := NewRelStore()
	tbl, _ := table.ParseCSV("people", "name,age,city\nalice,30,berlin\nbob,25,paris\ncarol,41,berlin\n")
	r.Create(tbl)
	preds := []CellPredicate{{Column: "city", Match: func(c string) bool { return c == "berlin" }}}
	cur, err := r.ScanWhere("people", preds, []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if got := cursorRows(cur); fmt.Sprint(got) != "[[alice] [carol]]" {
		t.Errorf("rows = %v, want [[alice] [carol]]", got)
	}
	// Predicate on missing column matches nothing but keeps schema.
	cur, err = r.ScanWhere("people", []CellPredicate{{Column: "ghost", Match: func(string) bool { return true }}}, []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if got := cursorRows(cur); len(got) != 0 || len(cur.Columns()) != 1 {
		t.Errorf("missing pred col = %v rows, header %v", got, cur.Columns())
	}
}

func TestRelStoreIsolationAndCRUD(t *testing.T) {
	r := NewRelStore()
	tbl, _ := table.ParseCSV("t", "a\n1\n")
	r.Create(tbl)
	// The store keeps the table it was given, not a copy of it.
	if err := r.View("t", func(v *table.Table) error {
		if v != tbl {
			t.Error("Create copied the table it was given")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Table("t")
	got.Columns[0].Cells[0] = "mutated"
	got2, _ := r.Table("t")
	if got2.Columns[0].Cells[0] != "1" {
		t.Error("Table did not return a copy")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "t" {
		t.Errorf("Names = %v", names)
	}
	if err := r.Drop("t"); err != nil {
		t.Fatal(err)
	}
	if err := r.Drop("t"); !errors.Is(err, ErrNoTable) {
		t.Errorf("double drop = %v", err)
	}
}

func TestIngestParsedHandsBackTheTableOnlyWhenItParsedOne(t *testing.T) {
	p := newPoly(t)
	pl, tbl, err := p.IngestParsed("raw/orders.csv", []byte("id,total\n1,9.5\n2,3.25\n"), nil)
	if err != nil || pl.Target != TargetRelational || tbl == nil {
		t.Fatalf("csv: placement %+v, table %v, err %v", pl, tbl, err)
	}
	if tbl.Name != "orders" || tbl.NumRows() != 2 || tbl.Meta["source"] != "raw/orders.csv" {
		t.Errorf("csv: table %v meta %v", tbl, tbl.Meta)
	}
	// The table handed back is the store's own: the parse is not copied.
	if err := p.Rel.View("orders", func(stored *table.Table) error {
		if stored != tbl {
			t.Error("the table handed back is a copy of the stored one")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string]string{
		"raw/broken.csv": "a,b\n1\n",
		"raw/event.json": `{"kind":"click"}`,
		"raw/notes.txt":  "hello",
	} {
		if _, tbl, err := p.IngestParsed(path, []byte(body), nil); err != nil || tbl != nil {
			t.Errorf("%s: table %v, err %v, want neither", path, tbl, err)
		}
	}
}
