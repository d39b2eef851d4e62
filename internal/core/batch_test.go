package core

import (
	"bufio"
	"bytes"
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
func batchLake(t *testing.T) (*Lake, *httptest.Server) {
	t.Helper()
	l, err := Open(t.TempDir())
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

// TestV1QueryBatchRowsValidation: batch_rows, like shards and
// buffer_rows, is no longer a body field. The decoder ignores all three
// at any value, in range or not, so the NDJSON answer is byte-identical
// to the one for the body without them.
func TestV1QueryBatchRowsValidation(t *testing.T) {
	_, srv := batchLake(t)
	// Fan-in 1 fixes the row sequence; only the stats trailer's timings
	// may differ.
	const base = `{"sql":"SELECT city, price FROM rel:hotels_a, rel:hotels_b WHERE price > 40","fanin":1`
	code, want := ndjsonQuery(t, srv, base+"}")
	if code != http.StatusOK || len(want) < 3 {
		t.Fatalf("base query: status %d, %d lines", code, len(want))
	}
	for _, extra := range []string{
		`"shards":4,"buffer_rows":64,"batch_rows":7`,
		`"shards":-1,"buffer_rows":-1,"batch_rows":-1`,
		`"shards":9999999,"buffer_rows":9999999,"batch_rows":9999999`,
	} {
		code, got := ndjsonQuery(t, srv, base+","+extra+"}")
		if code != http.StatusOK {
			t.Errorf("%s: status = %d, want 200", extra, code)
			continue
		}
		if last := got[len(got)-1]; !strings.HasPrefix(last, `{"stats":`) {
			t.Errorf("%s: last line %q, want the stats trailer", extra, last)
		}
		if strings.Join(got[:len(got)-1], "\n") != strings.Join(want[:len(want)-1], "\n") {
			t.Errorf("%s: %d lines differ from the answer without them (%d lines)", extra, len(got), len(want))
		}
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

// TestV1QueryJSONBodyEquivalence: the plain JSON answer of POST
// /v1/query is, byte for byte, what encoding/json writes for the map
// {"columns", "rows", "stats"} of the collected result: at every batch
// size, over cells with quotes, backslashes, <>&, control bytes, U+2028
// and invalid UTF-8, from stored columns and documents, and for an
// empty result ("rows":[]). The stats are taken from the body, since
// their timings differ from run to run.
func TestV1QueryJSONBodyEquivalence(t *testing.T) {
	l, srv := batchLake(t)
	addHostile(t, l)
	ctx := context.Background()
	oldBody := func(t *testing.T, sql string, body []byte) string {
		t.Helper()
		var env struct {
			Stats json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Stats == nil {
			t.Fatalf("%s: body %.200q: %v", sql, body, err)
		}
		st, err := l.Query(ctx, "dana", query.Request{SQL: sql, FanIn: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := query.Collect(ctx, st)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]string, 0, res.NumRows())
		for i := 0; i < res.NumRows(); i++ {
			rows = append(rows, res.Row(i))
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(map[string]any{"columns": orEmpty(res.ColumnNames()), "rows": rows, "stats": env.Stats}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, sql := range []string{
		"SELECT id, a, b FROM rel:hostile",
		"SELECT b, a, id FROM rel:hostile WHERE id < 40",
		"SELECT * FROM rel:hostile, doc:hostile_docs",
		"SELECT city, price FROM rel:hotels_a, rel:hotels_b WHERE price > 40",
		"SELECT id, a FROM rel:hostile WHERE id > 100000",
	} {
		resp, body := do(t, srv, http.MethodPost, "/v1/query", "dana", fmt.Sprintf(`{"sql":%q,"fanin":1}`, sql))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content type %q (%s)", sql, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
		if want := oldBody(t, sql, body); string(body) != want {
			t.Errorf("%s: body\n%q\nwant\n%q", sql, body, want)
		}
		for _, batchRows := range []int{1, 7, 1024} {
			st, err := l.Query(ctx, "dana", query.Request{SQL: sql, BatchRows: batchRows, FanIn: 1})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			writeQueryJSON(rec, ctx, st)
			body := rec.Body.Bytes()
			if want := oldBody(t, sql, body); string(body) != want {
				t.Errorf("%s batch=%d: body\n%q\nwant\n%q", sql, batchRows, body, want)
			}
		}
	}
	if _, body := do(t, srv, http.MethodPost, "/v1/query", "dana", `{"sql":"SELECT id FROM rel:hostile WHERE id > 100000"}`); !bytes.Contains(body, []byte(`"rows":[],"stats":`)) {
		t.Errorf("empty result body = %s", body)
	}
}

// TestV1QueryBatchNDJSONByteIdentity pins the serialization contract:
// at every batch size, the NDJSON stream's header and row lines, and
// the rows of its batch frames, are byte-identical to what
// encoding/json wrote for the JSON envelope's columns and rows — only
// the stats trailer (timings) may differ. The
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
			for _, framed := range []bool{false, true} {
				st, err := l.Query(context.Background(), "dana", query.Request{SQL: sql, BatchRows: batchRows, FanIn: 1})
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				streamNDJSON(rec, context.Background(), st, st.Stats, framed)
				gotLines := streamLines(t, rec.Body.Bytes(), len(env.Columns))
				// Everything but the final stats trailer must match byte
				// for byte; an error trailer anywhere fails the length
				// check or the comparison.
				if len(gotLines) != len(wantLines)+1 {
					t.Fatalf("%s batch=%d framed=%v: %d lines, want %d rows plus header and trailer", sql, batchRows, framed, len(gotLines), len(env.Rows))
				}
				for i, want := range wantLines {
					if gotLines[i] != want {
						t.Fatalf("%s batch=%d framed=%v: line %d = %q, want %q", sql, batchRows, framed, i, gotLines[i], want)
					}
				}
			}
		}
	}
}

// streamLines splits a /v1/query stream body into lines without their
// newlines, a batch frame's rows becoming their NDJSON row lines.
func streamLines(t *testing.T, body []byte, width int) []string {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(body))
	var lines []string
	for {
		next, err := br.Peek(1)
		if err == io.EOF {
			return lines
		}
		if err != nil {
			t.Fatal(err)
		}
		if next[0] != query.FrameMarker {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("unterminated line %q: %v", line, err)
			}
			lines = append(lines, strings.TrimSuffix(line, "\n"))
			continue
		}
		var f query.DecodedFrame
		if err := f.Read(br, width); err != nil {
			t.Fatal(err)
		}
		b := f.NextBatch(f.Left())
		for i := 0; i < b.Len(); i++ {
			lines = append(lines, strings.TrimSuffix(string(b.AppendRowJSON(nil, i)), "\n"))
		}
	}
}

// TestMetricsBatchSeries: an executed batch-mode query shows up in the
// golake_query_batch_rows / _fill_ratio histograms on the next scrape.
func TestMetricsBatchSeries(t *testing.T) {
	_, srv := batchLake(t)
	resp, _ := do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"SELECT city FROM rel:hotels_a, rel:hotels_b"}`)
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
	// Two 300-row sources are at least two batches observed.
	if strings.Contains(body, "golake_query_batch_rows_count 0") {
		t.Errorf("batch histogram has no samples:\n%s", grepLines(body, "golake_query_batch"))
	}
}

// TestQuerySQLBatchMatchesRow: the materializing QuerySQL entry point
// (Collect, draining batch-wise) returns exactly the rows the row
// cursor of Lake.Query serves for the same statement.
func TestQuerySQLBatchMatchesRow(t *testing.T) {
	// QuerySQL runs at the default fan-in: cell-for-cell equality needs
	// an order that does not depend on arrival, and every city is
	// distinct.
	l, _ := batchLake(t)
	ctx := context.Background()
	const sql = "SELECT city, price FROM rel:hotels_a, rel:hotels_b WHERE price > 40 ORDER BY city"
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
