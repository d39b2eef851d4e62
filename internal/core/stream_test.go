package core

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"golake/internal/query"
	"golake/internal/table"
	"golake/lakeerr"
)

// bigTableLake registers a wide relational table directly in the
// polystore (bypassing ingestion, which is not under test) so
// streaming behavior is observable at a size exceeding socket buffers.
func bigTableLake(t *testing.T, rows int) *Lake {
	t.Helper()
	l := testLake(t)
	big := table.New("big")
	big.Columns = []*table.Column{{Name: "id"}, {Name: "payload"}}
	for i := 0; i < rows; i++ {
		_ = big.AppendRow([]string{fmt.Sprint(i), "payload-0123456789abcdef-0123456789abcdef"})
	}
	l.Poly.Rel.Create(big)
	return l
}

func TestV1QueryNDJSONFramingRoundTrip(t *testing.T) {
	srv := apiLake(t)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/query",
		strings.NewReader(`{"sql":"SELECT id, total FROM rel:orders"}`))
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("missing header line")
	}
	var header struct {
		Columns []string `json:"columns"`
	}
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil || len(header.Columns) != 2 {
		t.Fatalf("header line = %q (%v)", sc.Text(), err)
	}
	var rows [][]string
	sawStats := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) > 0 && line[0] == '{' {
			// Object lines after the header are trailers: the clean-end
			// stats object (or an in-band error, which this query must
			// not produce).
			var trailer struct {
				Stats *query.ExecStats `json:"stats"`
				Error *errBody         `json:"error"`
			}
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("trailer line = %q (%v)", line, err)
			}
			if trailer.Error != nil {
				t.Fatalf("unexpected error trailer: %s", line)
			}
			if trailer.Stats == nil || len(trailer.Stats.Sources) != 1 || trailer.Stats.RowsOut != 2 {
				t.Fatalf("stats trailer = %s", line)
			}
			sawStats = true
			continue
		}
		var row []string
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("row line = %q (%v)", sc.Text(), err)
		}
		if len(row) != len(header.Columns) {
			t.Fatalf("row %v does not match header %v", row, header.Columns)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("streamed %d rows, want 2", len(rows))
	}
	if !sawStats {
		t.Error("clean NDJSON stream ended without a stats trailer")
	}
	// The same query over the default JSON envelope must agree.
	_, body := do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"SELECT id, total FROM rel:orders"}`)
	var env struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(env.Columns) != fmt.Sprint(header.Columns) || fmt.Sprint(env.Rows) != fmt.Sprint(rows) {
		t.Errorf("NDJSON %v %v disagrees with JSON envelope %v %v",
			header.Columns, rows, env.Columns, env.Rows)
	}
}

// TestNDJSONStreamsBeforeHandlerFinishes is the incremental-delivery
// guarantee: the client reads the first row while the handler is still
// writing the rest of a multi-megabyte result.
func TestNDJSONStreamsBeforeHandlerFinishes(t *testing.T) {
	l := bigTableLake(t, 100000) // ~4 MB on the wire, well past socket buffers
	var handlerDone atomic.Bool
	inner := l.HTTPHandler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		handlerDone.Store(true)
	}))
	defer srv.Close()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/query",
		strings.NewReader(`{"sql":"SELECT id, payload FROM rel:big"}`))
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
	r := bufio.NewReader(resp.Body)
	if _, err := r.ReadString('\n'); err != nil { // header
		t.Fatal(err)
	}
	first, err := r.ReadString('\n') // first row
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(first, "[") {
		t.Fatalf("first row line = %q", first)
	}
	if handlerDone.Load() {
		t.Fatal("handler finished before the client read the first row: response was buffered, not streamed")
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		t.Fatal(err)
	}
}

// failingStream streams a few one-row batches, then breaks — the
// mid-stream failure case.
type failingStream struct {
	rows int
	err  error
}

func (f *failingStream) Columns() []string { return []string{"a"} }

func (f *failingStream) NextBatch(ctx context.Context) (*query.Batch, error) {
	if f.rows == 0 {
		return nil, f.err
	}
	f.rows--
	return query.NewBatch([]*query.Vector{query.NewVector([]string{"x"})}), nil
}

func (f *failingStream) Close() error { return nil }

func TestNDJSONMidStreamErrorEmitsTrailerLine(t *testing.T) {
	rec := httptest.NewRecorder()
	st := &failingStream{rows: 2, err: lakeerr.Errorf(lakeerr.CodeUnavailable, "store went away")}
	streamNDJSON(rec, context.Background(), st, nil)
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 4 { // header + 2 rows + trailer
		t.Fatalf("lines = %q", lines)
	}
	var trailer struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[3]), &trailer); err != nil {
		t.Fatalf("trailer = %q (%v)", lines[3], err)
	}
	if trailer.Error.Code != "unavailable" || !strings.Contains(trailer.Error.Message, "store went away") {
		t.Errorf("trailer = %+v", trailer.Error)
	}
	// The stream already committed a 200; the failure is in-band only.
	if rec.Code != http.StatusOK {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestNDJSONOpenErrorKeepsEnvelope(t *testing.T) {
	srv := apiLake(t)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/query",
		strings.NewReader(`{"sql":"SELECT * FROM rel:ghost"}`))
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
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 before the stream commits", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if code, _ := envelope(t, body); code != "not_found" {
		t.Errorf("code = %q", code)
	}
}

// TestQueryStreamCancellationReleasesCleanly covers the query stream's
// contract under cancellation: Next surfaces a typed unavailable
// error, Close is clean, and no goroutines are left behind (the
// pipeline is pull-based — nothing to leak, pinned here under -race).
func TestQueryStreamCancellationReleasesCleanly(t *testing.T) {
	l := bigTableLake(t, 10000)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	it, err := l.Query(ctx, "dana", query.Request{SQL: "SELECT id FROM rel:big"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(ctx); err != nil {
		t.Fatalf("first row: %v", err)
	}
	cancel()
	if _, err := it.Next(ctx); lakeerr.CodeOf(err) != lakeerr.CodeUnavailable {
		t.Fatalf("Next after cancel = %v, want unavailable", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d after canceled stream", before, after)
	}
}

func TestQueryStreamHonorsMaxResults(t *testing.T) {
	l, err := Open(t.TempDir(), WithMaxResults(5))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	big := table.New("big")
	big.Columns = []*table.Column{{Name: "id"}}
	for i := 0; i < 1000; i++ {
		_ = big.AppendRow([]string{fmt.Sprint(i)})
	}
	l.Poly.Rel.Create(big)
	it, err := l.Query(context.Background(), "dana", query.Request{SQL: "SELECT id FROM rel:big"})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for {
		_, err := it.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 5 {
		t.Errorf("streamed %d rows, want the WithMaxResults cap of 5", n)
	}
}

// TestV1DatasetsCursorStableUnderConcurrentIngest is the reason
// cursors exist: an ingest landing between two pages shifts positions
// but must not make the cursor walk repeat or skip datasets.
func TestV1DatasetsCursorStableUnderConcurrentIngest(t *testing.T) {
	srv := apiLake(t) // raw/orders.csv, raw/payments.csv
	_, body := get(t, srv, "/v1/datasets?limit=1", "dana")
	var pg struct {
		Items []struct {
			ID string `json:"id"`
		} `json:"items"`
		NextCursor string `json:"next_cursor"`
	}
	if err := json.Unmarshal(body, &pg); err != nil || len(pg.Items) != 1 {
		t.Fatalf("page 1 = %s (%v)", body, err)
	}
	if pg.Items[0].ID != "raw/orders.csv" || pg.NextCursor == "" {
		t.Fatalf("page 1 = %+v", pg)
	}
	// A new dataset sorting before the cursor lands mid-walk.
	resp, _ := do(t, srv, http.MethodPost, "/v1/datasets", "dana",
		`{"path":"raw/aaa.csv","content":"id\n1\n"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	_, body = get(t, srv, "/v1/datasets?limit=1&cursor="+pg.NextCursor, "dana")
	var pg2 struct {
		Items []struct {
			ID string `json:"id"`
		} `json:"items"`
		Total int `json:"total"`
	}
	if err := json.Unmarshal(body, &pg2); err != nil || len(pg2.Items) != 1 {
		t.Fatalf("page 2 = %s (%v)", body, err)
	}
	if pg2.Items[0].ID != "raw/payments.csv" {
		t.Errorf("cursor page repeated/skipped: got %q, want raw/payments.csv", pg2.Items[0].ID)
	}
	if pg2.Total != 3 {
		t.Errorf("total = %d, want 3 after the concurrent ingest", pg2.Total)
	}
}

func TestV1CursorValidation(t *testing.T) {
	srv := apiLake(t)
	// Undecodable cursors are invalid queries.
	resp, body := get(t, srv, "/v1/datasets?cursor=%21%21%21", "dana")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor status = %d", resp.StatusCode)
	}
	if code, _ := envelope(t, body); code != "invalid_query" {
		t.Errorf("code = %q", code)
	}
	// A positional cursor does not address the keyset-paged listing.
	pos := "cDox" // base64url("p:1")
	resp, _ = get(t, srv, "/v1/datasets?cursor="+pos, "dana")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cross-listing cursor status = %d", resp.StatusCode)
	}
}

func TestV1AuditCursorPagination(t *testing.T) {
	srv := apiLake(t)
	// Two queries log two access events on orders.
	for i := 0; i < 2; i++ {
		resp, _ := do(t, srv, http.MethodPost, "/v1/query", "dana", `{"sql":"SELECT id FROM rel:orders"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status = %d", resp.StatusCode)
		}
	}
	var seen int
	cursor := ""
	for hops := 0; hops < 10; hops++ {
		path := "/v1/audit?entity=raw/orders.csv&limit=1"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		_, body := get(t, srv, path, "gov")
		var pg struct {
			Items      []json.RawMessage `json:"items"`
			NextCursor string            `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &pg); err != nil {
			t.Fatalf("audit page = %s (%v)", body, err)
		}
		seen += len(pg.Items)
		if pg.NextCursor == "" {
			break
		}
		cursor = pg.NextCursor
	}
	if seen < 2 {
		t.Errorf("cursor walk saw %d audit events, want >= 2", seen)
	}
}

// spanStream is a failingStream that records the spans it is given.
type spanStream struct {
	failingStream
	spans []string
}

func (s *spanStream) AddSpan(name string, _ time.Duration) { s.spans = append(s.spans, name) }

// hungUpWriter accepts the first ok body writes, then fails every
// other — a client that went away mid-stream.
type hungUpWriter struct {
	*httptest.ResponseRecorder
	ok int
}

func (w *hungUpWriter) Write(p []byte) (int, error) {
	if w.ok == 0 {
		return 0, errors.New("client went away")
	}
	w.ok--
	return w.ResponseRecorder.Write(p)
}

// TestNDJSONSerializeSpanOnEveryExit: the stream's "serialize" span is
// recorded once however the stream ends — on a clean end before the
// stats trailer reads it, after an error trailer, and after a failed
// write of the header or of a batch.
func TestNDJSONSerializeSpanOnEveryExit(t *testing.T) {
	for _, tc := range []struct {
		name    string
		err     error
		writes  int // body writes that succeed; -1 for all
		trailer string
	}{
		{"clean end", io.EOF, -1, `{"stats":`},
		{"error trailer", lakeerr.Errorf(lakeerr.CodeUnavailable, "store went away"), -1, `{"error":`},
		{"header write fails", io.EOF, 0, ""},
		{"batch write fails", io.EOF, 1, ""},
	} {
		st := &spanStream{failingStream: failingStream{rows: 2, err: tc.err}}
		rec := httptest.NewRecorder()
		var w http.ResponseWriter = rec
		if tc.writes >= 0 {
			w = &hungUpWriter{ResponseRecorder: rec, ok: tc.writes}
		}
		spansAtTrailer := -1
		streamNDJSON(w, context.Background(), st, func() query.ExecStats {
			spansAtTrailer = len(st.spans)
			return query.ExecStats{}
		})
		if len(st.spans) != 1 || st.spans[0] != "serialize" {
			t.Errorf("%s: spans %q, want one serialize span", tc.name, st.spans)
		}
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		if last := lines[len(lines)-1]; tc.trailer != "" && !strings.HasPrefix(last, tc.trailer) {
			t.Errorf("%s: last line %q, want a %s trailer", tc.name, last, tc.trailer)
		}
		if tc.name == "clean end" && spansAtTrailer != 1 {
			t.Errorf("clean end: %d spans recorded when the stats trailer was written, want 1", spansAtTrailer)
		}
	}
}

// TestWriteErrNeverFiresAfterPartialBody pins the envelope-integrity
// rule: once a handler has started the body, writeErr is a no-op
// rather than interleaving an error object into the partial payload.
func TestWriteErrNeverFiresAfterPartialBody(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, status: http.StatusOK}
	_, _ = sw.Write([]byte(`{"columns":["a"],`))
	writeErr(sw, lakeerr.Errorf(lakeerr.CodeInternal, "boom"))
	if got := rec.Body.String(); got != `{"columns":["a"],` {
		t.Errorf("body after late writeErr = %q, want the partial body untouched", got)
	}
}

// TestRecoverMidStreamPanicEmitsNDJSONTrailer covers the panic path of
// the audit: a handler dying mid-NDJSON terminates the stream with the
// trailer error line instead of a second status line or silence.
func TestRecoverMidStreamPanicEmitsNDJSONTrailer(t *testing.T) {
	l := testLake(t)
	h := l.recoverMW(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ndjsonContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("{\"columns\":[\"a\"]}\n"))
		panic("mid-stream")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", nil))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"error"`) || !strings.Contains(last, "internal") {
		t.Errorf("stream after panic = %q, want a trailer error line", rec.Body.String())
	}
}

// TestNDJSONScanAllocationCeiling holds a 20k-row POST /v1/query NDJSON
// scan, client and server over a real connection, to a per-batch cost:
// row lines are appended into one buffer from the store's encoding of
// each column, so no row, cell or line allocates. 344 allocations
// measured (Go 1.24, one or two CPUs) — as many as when every cell was
// copied into a scratch row and escaped anew — and the ceiling is that
// plus 5 %; one allocation per row would add 20 000.
func TestNDJSONScanAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	l := bigTableLake(t, 20000)
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	body := `{"sql":"SELECT id, payload FROM rel:big","fanin":1}`
	lines := 0
	n := testing.AllocsPerRun(10, func() {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Lake-User", "dana")
		req.Header.Set("Accept", ndjsonContentType)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		lines = 0
		for sc.Scan() {
			lines++
		}
		resp.Body.Close()
	})
	if lines != 20002 {
		t.Fatalf("stream had %d lines, want a header, 20000 rows and a trailer", lines)
	}
	if n > 361 {
		t.Errorf("NDJSON scan of 20000 rows: %v allocations, want <= 361 (344 measured)", n)
	}
}
