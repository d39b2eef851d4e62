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
)

// batchLake assembles a lake over relational-only sources — the
// federation the columnar pipeline serves end to end. disableBatch
// forces the row pipeline on the same data, for byte-identity
// comparisons.
func batchLake(t *testing.T, disableBatch bool, opts ...Option) (*Lake, *httptest.Server) {
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
	l.Engine.DisableBatch = disableBatch
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
	_, srv := batchLake(t, false)
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

// TestV1QueryBatchNDJSONByteIdentity pins the serialization contract:
// the NDJSON a batch-mode stream produces is byte-identical to the row
// pipeline's, at every batch size — only the stats trailer (timings)
// may differ.
func TestV1QueryBatchNDJSONByteIdentity(t *testing.T) {
	_, rowSrv := batchLake(t, true)
	_, batchSrv := batchLake(t, false)
	for _, sql := range []string{
		"SELECT city, price FROM rel:hotels_a, rel:hotels_b WHERE price > 40",
		"SELECT * FROM rel:hotels_a, rel:hotels_b",
		"SELECT city, stars FROM rel:hotels_a, rel:hotels_b LIMIT 700",
	} {
		// Both sides run the sequential union: without an ORDER BY the
		// row sequence is only defined at fan-in 1, and the default
		// width is the machine's CPU count.
		code, wantLines := ndjsonQuery(t, rowSrv, fmt.Sprintf(`{"sql":%q,"fanin":1}`, sql))
		if code != http.StatusOK {
			t.Fatalf("%s: row status = %d", sql, code)
		}
		for _, batchRows := range []int{1, 7, 1024} {
			body := fmt.Sprintf(`{"sql":%q,"batch_rows":%d,"fanin":1}`, sql, batchRows)
			code, gotLines := ndjsonQuery(t, batchSrv, body)
			if code != http.StatusOK {
				t.Fatalf("%s batch_rows=%d: status = %d", sql, batchRows, code)
			}
			if len(gotLines) != len(wantLines) {
				t.Fatalf("%s batch_rows=%d: %d lines, want %d", sql, batchRows, len(gotLines), len(wantLines))
			}
			// Everything but the final stats trailer must match byte for
			// byte; an error trailer anywhere fails the length check above
			// or the comparison here.
			for i := 0; i < len(wantLines)-1; i++ {
				if gotLines[i] != wantLines[i] {
					t.Fatalf("%s batch_rows=%d: line %d = %q, want %q", sql, batchRows, i, gotLines[i], wantLines[i])
				}
			}
		}
	}
}

// TestMetricsBatchSeries: an executed batch-mode query shows up in the
// golake_query_batch_rows / _fill_ratio histograms on the next scrape.
func TestMetricsBatchSeries(t *testing.T) {
	_, srv := batchLake(t, false)
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
// (the Collect bridge) returns identical tables from both pipelines.
func TestQuerySQLBatchMatchesRow(t *testing.T) {
	// Fan-in 1 on both: cell-for-cell equality needs the sequential
	// union's row order, not arrival order.
	rowLake, _ := batchLake(t, true, WithFanIn(1, 0))
	colLake, _ := batchLake(t, false, WithFanIn(1, 0))
	ctx := context.Background()
	const sql = "SELECT city, price FROM rel:hotels_a, rel:hotels_b WHERE price > 40"
	want, err := rowLake.QuerySQL(ctx, "dana", sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := colLake.QuerySQL(ctx, "dana", sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("columns = %d, want %d", len(got.Columns), len(want.Columns))
	}
	for j := range want.Columns {
		if got.Columns[j].Name != want.Columns[j].Name {
			t.Fatalf("column %d = %q, want %q", j, got.Columns[j].Name, want.Columns[j].Name)
		}
		if fmt.Sprint(got.Columns[j].Cells) != fmt.Sprint(want.Columns[j].Cells) {
			t.Errorf("column %q cells differ", want.Columns[j].Name)
		}
	}
}
