package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"golake/internal/persist"
	"golake/internal/storage/polystore"
	"golake/internal/table"
	"golake/internal/workload"
)

// A spreadsheet export's byte-order mark must not become part of the
// first column's name, or SELECT id fails with no-such-column.
func TestIngestStripsByteOrderMarkEndToEnd(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	res, err := l.Ingest(ctx, "raw/export.csv", []byte("\ufeffid,city\n1,berlin\n2,paris\n"), "sheet", "dana")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metadata.Properties["header"]; got != "id,city" {
		t.Errorf("header property = %q", got)
	}
	out, err := l.QuerySQL(ctx, "dana", "SELECT id FROM rel:export WHERE city = 'paris'")
	if err != nil {
		t.Fatalf("SELECT id: %v", err)
	}
	if out.NumRows() != 1 || out.Columns[0].Name != "id" || out.Columns[0].Cells[0] != "2" {
		t.Errorf("result = %v %v", out.ColumnNames(), out.Columns[0].Cells)
	}
	// The raw object keeps its mark: the lake stores originals.
	if raw, err := l.Poly.Files.Get("raw/export.csv"); err != nil || !strings.HasPrefix(string(raw), "\ufeff") {
		t.Errorf("raw bytes = %q, %v", raw, err)
	}
}

// The one parse hands extraction the same table placement stored: the
// metadata's schema and the relational store agree. The result carries
// no table, so no caller can reach the one the store holds.
func TestIngestDescribesTheTableItPlaced(t *testing.T) {
	l := testLake(t)
	body := []byte("id,total\n1,9.5\n2,3.25\n")
	res, err := l.Ingest(context.Background(), "raw/orders.csv", body, "erp", "dana")
	if err != nil {
		t.Fatal(err)
	}
	md := res.Metadata
	if md.Properties["rows"] != "2" || md.Properties["columns"] != "2" || md.Properties["size"] != fmt.Sprint(len(body)) || md.Properties["format"] != "csv" {
		t.Errorf("properties = %v", md.Properties)
	}
	if len(md.Schema) != 2 || md.Schema[0].Kind.String() != "int" || md.Schema[1].Kind.String() != "float" {
		t.Errorf("schema = %+v", md.Schema)
	}
	stored, err := l.Poly.Rel.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range stored.Columns {
		if i >= len(md.Schema) || md.Schema[i].Name != c.Name || md.Schema[i].Kind != c.Kind {
			t.Errorf("stored column %d = %s %v, schema %+v", i, c.Name, c.Kind, md.Schema)
		}
	}
	if stored.Columns[0].Cells[0] != "1" || stored.NumRows() != 2 {
		t.Errorf("stored table = %v", stored.Columns)
	}
}

// Lake.Ingest of the benchmark-shaped 1000 x 5 body on a memory-backed
// lake: about 63 allocations (Go 1.24). The one CSV parse copies the
// body once and cuts every cell from that copy (about 20); the WAL
// record, the segment, GEMMS, HANDLE's zone, the catalog entry and the
// provenance event share the rest. The ceiling is the measure plus
// 10–15 %, so a string per record coming back fails here (about 1 080 with
// encoding/csv), as does a second parse, a copy of the parsed table
// (16), HANDLE mirroring the metadata into graph nodes again or a JSON
// round trip per catalog write (about 500 between them), or a parser
// that allocates per rejected cell (149 k at the parent of this test).
func TestIngestAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	l, err := Open(t.TempDir(), WithPersistence(persist.NewMemory()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AddUser("dana", RoleDataScientist)
	body := allocCeilingBody()
	ctx := context.Background()
	seq := 0
	n := testing.AllocsPerRun(20, func() {
		seq++
		if _, err := l.Ingest(ctx, fmt.Sprintf("raw/t_%04d.csv", seq), body, "bench", "dana"); err != nil {
			t.Fatal(err)
		}
	})
	if n > 72 {
		t.Errorf("Lake.Ingest of 1000x5: %v allocations, want <= 72", n)
	}
}

// allocCeilingBody is the benchmark-shaped 1000 x 5 CSV body of the
// ingest allocation ceilings.
func allocCeilingBody() []byte {
	var sb strings.Builder
	sb.WriteString("id,site,v,w,note\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "ingest_%07d,s%d,%d,%d.5,n%d\n", i, i%50, i*7919%9973, i%113, i%1000)
	}
	return []byte(sb.String())
}

// POST /v1/datasets of the same body through HTTPHandler, request
// middleware and response included: about 97 allocations (Go 1.24), 35
// over Lake.Ingest. The body is read into one buffer of its declared
// length and its content unescaped in place, so the ingest's data is
// that buffer. Decoding it with encoding/json, which grows its own
// buffer and copies the content into a string and back, took 112.
func TestHTTPIngestAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	l, err := Open(t.TempDir(), WithPersistence(persist.NewMemory()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AddUser("dana", RoleDataScientist)
	h := l.HTTPHandler()
	content := allocCeilingBody()
	// One request per call: AllocsPerRun(20) calls once more to warm up.
	var reqs []*http.Request
	for i := 0; i < 21; i++ {
		body, err := json.Marshal(ingestRequest{Path: fmt.Sprintf("raw/t_%04d.csv", i), Source: "bench", Content: string(content)})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/datasets", bytes.NewReader(body))
		req.Header.Set("X-Lake-User", "dana")
		reqs = append(reqs, req)
	}
	seq := 0
	n := testing.AllocsPerRun(20, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, reqs[seq])
		seq++
		if rec.Code != http.StatusCreated {
			t.Fatalf("POST /v1/datasets: %d %s", rec.Code, rec.Body)
		}
	})
	if n > 104 {
		t.Errorf("POST /v1/datasets of 1000x5: %v allocations, want <= 104", n)
	}
}

// One fresh table ingested into a maintained 200-table lake, then the
// incremental pass that indexes it: about 1 940 allocations (Go 1.24).
// The pass discovers the table's RFDs once for the report and CLAMS,
// with one frequency map, and keeps one string per distinct format
// pattern of a D3L column; discovering them twice, a map per (group,
// dependent column) and a pattern string per value took 3 235. It
// copies only the fresh table out of the store, classifies it
// with DS-kNN keeping K neighbours in K slots, interns each
// similarity kernel's inputs once per column, reads context projections
// recorded when the context was opened, tokenizes into one reused
// buffer, counts violations without rendering them and without a row
// list per determinant value, lists the curated zone from HANDLE's
// zone map, and profiles the table once for all three Juneau tasks; it
// lists and interns each column's values once, into the explorer's one
// catalog, and copies the embedding sums of the tokens it touches into
// one slab instead of allocating a vector per token. The ingest builds
// no HANDLE graph nodes and no JSON-encoded catalog entry. With a
// vector per touched token it took 4 180; with graph nodes and a JSON
// catalog entry as well, 4 715; with a row list per
// determinant value as well, 5 410; with a growing,
// sorted list of every categorised table per DS-kNN step it took
// 5 440; with a dictionary per discovery index as well, 5 505; with a
// Juneau profile per task as well, 5 660; with violations rendered and
// ranked and a token slice per value as well, 7 800; with copied string
// sets and cloned properties too, 10 300; with a projection row rebuilt
// per (token, context) pair and map-probing set similarity, 15 500;
// copying every table and formatting sort keys per comparison on top,
// 39 400.
func TestMaintainIncrementalAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const lakeTables, runs = 200, 10
	spec := workload.DefaultSpec()
	spec.NumTables, spec.JoinGroups, spec.RowsPerTable, spec.ExtraCols = lakeTables+runs+1, 8, 100, 2
	corpus := workload.GenerateCorpus(spec)
	l, err := Open(t.TempDir(), WithPersistence(persist.NewMemory()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AddUser("dana", RoleDataScientist)
	ctx := context.Background()
	ingest := func(tb *table.Table) {
		if _, err := l.Ingest(ctx, "raw/"+tb.Name+".csv", []byte(table.ToCSV(tb)), "generator", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range corpus.Tables[:lakeTables] {
		ingest(tb)
	}
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	fresh := corpus.Tables[lakeTables:]
	n := testing.AllocsPerRun(runs, func() {
		ingest(fresh[0])
		fresh = fresh[1:]
		rep, err := l.MaintainIncremental(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mode != "incremental" || rep.DatasetsReindexed != 1 {
			t.Fatalf("pass = %s over %d datasets, want incremental over 1", rep.Mode, rep.DatasetsReindexed)
		}
	})
	if n > 2040 {
		t.Errorf("Ingest + MaintainIncremental of one table into %d: %v allocations, want <= 2040 (measured 1 940)", lakeTables, n)
	}
}

// POST /v1/datasets of JSON Lines whose document is null lands the
// object file-only, as any JSON that is not objects does, and a reopen
// brings it back.
func TestHTTPIngestNullDocument(t *testing.T) {
	mem := persist.NewMemory()
	l, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	req := httptest.NewRequest(http.MethodPost, "/v1/datasets", strings.NewReader(`{"path":"raw/n.jsonl","content":"null\n"}`))
	req.Header.Set("X-Lake-User", "dana")
	rec := httptest.NewRecorder()
	l.HTTPHandler().ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated || !strings.Contains(rec.Body.String(), `"store":"file"`) {
		t.Fatalf("null document: %d %s, want 201 in the file store", rec.Code, rec.Body)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pl, ok := l.Poly.PlacementOf("raw/n.jsonl")
	if raw, err := l.Poly.Files.Get("raw/n.jsonl"); !ok || pl.Target != polystore.TargetFile || err != nil || string(raw) != "null\n" {
		t.Errorf("after a reopen: placement %+v (%v), bytes %q (%v)", pl, ok, raw, err)
	}
}
