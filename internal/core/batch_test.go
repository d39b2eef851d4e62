package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"golake/internal/query"
	"golake/internal/table"
)

// batchLake assembles a lake over two relational sources with
// overlapping headers, 600 rows in all.
func batchLake(t *testing.T, opts ...Option) (*Lake, *httptest.Server) {
	t.Helper()
	l, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	l.AddUser("dana", RoleDataScientist)
	ctx := context.Background()
	var a, b strings.Builder
	a.WriteString("city,price\n")
	b.WriteString("city,price,stars\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&a, "a%d,%d\n", i, i%97)
		fmt.Fprintf(&b, "b%d,%d,%d\n", i, i%89, i%5)
	}
	if _, err := l.Ingest(ctx, "raw/hotels_a.csv", []byte(a.String()), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Ingest(ctx, "raw/hotels_b.csv", []byte(b.String()), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.HTTPHandler())
	t.Cleanup(srv.Close)
	return l, srv
}

// ndjsonQuery POSTs a query with Accept: application/x-ndjson and
// returns the raw body split into lines.
func ndjsonQuery(t *testing.T, srv *httptest.Server, body string) (int, []string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Lake-User", "dana")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.Split(strings.TrimRight(string(data), "\n"), "\n")
}

// TestV1QueryBatchRowsValidation: out-of-range batch_rows is an
// invalid query (400), not a silent clamp — mirroring the fan-in
// knobs.
func TestV1QueryBatchRowsValidation(t *testing.T) {
	_, srv := batchLake(t)
	for _, body := range []string{
		`{"sql":"SELECT city FROM rel:hotels_a","batch_rows":-1}`,
		`{"sql":"SELECT city FROM rel:hotels_a","batch_rows":9999999}`,
	} {
		resp, data := do(t, srv, http.MethodPost, "/v1/query", "dana", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", body, resp.StatusCode, data)
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != "invalid_query" {
			t.Errorf("%s: envelope = %s (%v)", body, data, err)
		}
	}
	// In-range values pass through.
	resp, data := do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"SELECT city FROM rel:hotels_a","batch_rows":64}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch_rows=64: status = %d (%s)", resp.StatusCode, data)
	}
}

// hostileCells are cells every escape of the row line touches: the
// quote and backslash, the HTML-escaped <, > and &, control bytes with
// and without a short escape, the line and paragraph separators,
// invalid UTF-8 (a stray continuation byte, a truncated sequence, an
// encoded surrogate) and the empty cell.
var hostileCells = []string{"", `"`, `\`, "<", ">", "&", `<a href="x">&amp;\</a>`, "\x00", "\x01\x1f\x7f",
	"\b\f\n\r\t", "\u2028", "x\u2029y", "\xff", "a\xc3", "\xed\xa0\x80", "é😀", "plain"}

// addHostile stores a table of hostileCells straight in the relational
// store, so its cells keep their exact bytes, and ingests a document
// collection of them (valid UTF-8 only: JSON cannot carry the rest)
// with a column c the table lacks.
func addHostile(t *testing.T, l *Lake) {
	t.Helper()
	tbl := table.New("hostile")
	tbl.Columns = []*table.Column{{Name: "id"}, {Name: "a"}, {Name: "b"}}
	n := len(hostileCells)
	for i := 0; i < 3*n; i++ {
		_ = tbl.AppendRow([]string{fmt.Sprint(i), hostileCells[i%n], hostileCells[(i*7+3)%n]})
	}
	l.Poly.Rel.Create(tbl)
	var jsonl strings.Builder
	for i := 0; i < n; i++ {
		doc, _ := json.Marshal(map[string]any{"id": 100 + i, "a": hostileCells[i], "c": hostileCells[(i+5)%n]})
		jsonl.Write(doc)
		jsonl.WriteByte('\n')
	}
	if _, err := l.Ingest(context.Background(), "raw/hostile_docs.jsonl", []byte(jsonl.String()), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
}

// TestV1QueryBatchNDJSONByteIdentity pins the serialization contract:
// at every batch size, the NDJSON stream's header and row lines are
// byte-identical to what encoding/json wrote for the JSON envelope's
// columns and rows — only the stats trailer (timings) may differ. The
// hostile statements read stored columns, whose row lines are copied
// from the store's encoding, with and without a selection, under a
// reordered projection, and in one line with null pads and beside
// document rows, whose cells are encoded as they are written.
func TestV1QueryBatchNDJSONByteIdentity(t *testing.T) {
	l, srv := batchLake(t)
	addHostile(t, l)
	for _, sql := range []string{
		"SELECT city, price FROM rel:hotels_a, rel:hotels_b WHERE price > 40",
		"SELECT * FROM rel:hotels_a, rel:hotels_b",
		"SELECT city, stars FROM rel:hotels_a, rel:hotels_b LIMIT 700",
		"SELECT id, a, b FROM rel:hostile",
		"SELECT id, a, b FROM rel:hostile WHERE id > 10",
		"SELECT b, a, id FROM rel:hostile WHERE id < 40",
		"SELECT * FROM rel:hostile, doc:hostile_docs",
		"SELECT c, b, a, id FROM rel:hostile, doc:hostile_docs WHERE id > 5",
	} {
		// Fan-in 1 throughout: without an ORDER BY the row sequence is
		// only defined for the sequential union.
		resp, data := do(t, srv, http.MethodPost, "/v1/query", "dana", fmt.Sprintf(`{"sql":%q,"fanin":1}`, sql))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: JSON status = %d (%s)", sql, resp.StatusCode, data)
		}
		// The rows stay as encoding/json wrote them: decoding would
		// turn invalid UTF-8's \ufffd escapes into the rune itself.
		var env struct {
			Columns []string          `json:"columns"`
			Rows    []json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		if len(env.Rows) == 0 {
			t.Fatalf("%s: no rows", sql)
		}
		header, _ := json.Marshal(map[string]any{"columns": env.Columns})
		wantLines := []string{string(header)}
		for _, row := range env.Rows {
			wantLines = append(wantLines, string(row))
		}
		for _, batchRows := range []int{1, 7, 1024} {
			body := fmt.Sprintf(`{"sql":%q,"batch_rows":%d,"fanin":1}`, sql, batchRows)
			code, gotLines := ndjsonQuery(t, srv, body)
			if code != http.StatusOK {
				t.Fatalf("%s batch_rows=%d: status = %d", sql, batchRows, code)
			}
			// Everything but the final stats trailer must match byte for
			// byte; an error trailer anywhere fails the length check or
			// the comparison.
			if len(gotLines) != len(wantLines)+1 {
				t.Fatalf("%s batch_rows=%d: %d lines, want %d rows plus header and trailer", sql, batchRows, len(gotLines), len(env.Rows))
			}
			for i, want := range wantLines {
				if gotLines[i] != want {
					t.Fatalf("%s batch_rows=%d: line %d = %q, want %q", sql, batchRows, i, gotLines[i], want)
				}
			}
		}
	}
}

// TestMetricsBatchSeries: an executed batch-mode query shows up in the
// golake_query_batch_rows / _fill_ratio histograms on the next scrape.
func TestMetricsBatchSeries(t *testing.T) {
	_, srv := batchLake(t)
	resp, _ := do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"SELECT city FROM rel:hotels_a, rel:hotels_b","batch_rows":64}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	_, body := scrape(t, srv)
	for _, want := range []string{
		"# TYPE golake_query_batch_rows histogram",
		"# TYPE golake_query_batch_fill_ratio histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in scrape:\n%s", want, grepLines(body, "golake_query_batch"))
		}
	}
	// 600 rows at 64 rows/batch is at least 10 batches observed.
	if strings.Contains(body, "golake_query_batch_rows_count 0") {
		t.Errorf("batch histogram has no samples:\n%s", grepLines(body, "golake_query_batch"))
	}
}

// TestQuerySQLBatchMatchesRow: the materializing QuerySQL entry point
// (Collect, draining batch-wise) returns exactly the rows the row
// cursor of Lake.Query serves for the same statement.
func TestQuerySQLBatchMatchesRow(t *testing.T) {
	// Fan-in 1: cell-for-cell equality needs the sequential union's row
	// order, not arrival order.
	l, _ := batchLake(t, WithFanIn(1, 0))
	ctx := context.Background()
	const sql = "SELECT city, price FROM rel:hotels_a, rel:hotels_b WHERE price > 40"
	st, err := l.Query(ctx, "dana", query.Request{SQL: sql, BatchRows: 7})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]string
	for {
		row, err := st.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, row)
	}
	_ = st.Close()
	got, err := l.QuerySQL(ctx, "dana", sql)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != len(want) || len(want) == 0 {
		t.Fatalf("QuerySQL %d rows, cursor %d", got.NumRows(), len(want))
	}
	for i, row := range want {
		if fmt.Sprint(got.Row(i)) != fmt.Sprint(row) {
			t.Errorf("row %d: QuerySQL %v, cursor %v", i, got.Row(i), row)
		}
	}
}
