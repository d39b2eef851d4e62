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
	"sort"
	"strings"
	"testing"
	"time"

	"golake/internal/query"
)

// fanInLake assembles a lake with parallel fan-in on and three member
// stores holding overlapping datasets.
func fanInLake(t *testing.T) *Lake {
	t.Helper()
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	ctx := context.Background()
	var csv strings.Builder
	csv.WriteString("city,price\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&csv, "c%d,%d\n", i, i%97)
	}
	if _, err := l.Ingest(ctx, "raw/hotels_rel.csv", []byte(csv.String()), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	var jsonl strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&jsonl, "{\"city\":\"d%d\",\"price\":%d}\n", i, i%89)
	}
	if _, err := l.Ingest(ctx, "raw/hotels_doc.jsonl", []byte(jsonl.String()), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	return l
}

func collectSorted(t *testing.T, it query.RowIterator) []string {
	t.Helper()
	var out []string
	ctx := context.Background()
	for {
		row, err := it.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, strings.Join(row, "|"))
	}
	_ = it.Close()
	sort.Strings(out)
	return out
}

// TestLakeRequestFanInMatchesSequential pins end-to-end equivalence at
// the Lake level: the request's fan-in width, set or defaulted, changes
// interleaving, never the result set.
func TestLakeRequestFanInMatchesSequential(t *testing.T) {
	l := fanInLake(t)
	const sql = "SELECT city, price FROM rel:hotels_rel, doc:hotels_doc WHERE price > 40"
	run := func(req query.Request, width int) []string {
		t.Helper()
		st, err := l.Query(context.Background(), "dana", req)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Plan().FanIn; got != width {
			t.Fatalf("fanin %d: plan width %d, want %d", req.FanIn, got, width)
		}
		return collectSorted(t, st)
	}
	want := run(query.Request{SQL: sql, FanIn: 1}, 1)
	if len(want) == 0 {
		t.Fatal("fixture returned no rows")
	}
	for _, c := range []struct {
		req   query.Request
		width int
	}{
		// Unset, the width is one puller per CPU, capped at the two
		// sources.
		{query.Request{SQL: sql}, min(query.DefaultFanIn(), 2)},
		{query.Request{SQL: sql, FanIn: 8}, 2},
		{query.Request{SQL: sql, FanIn: 4}, 2},
	} {
		got := run(c.req, c.width)
		if len(got) != len(want) {
			t.Fatalf("fanin %d: %d rows, sequential %d", c.req.FanIn, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fanin %d: row %d is %q, sequential %q", c.req.FanIn, i, got[i], want[i])
			}
		}
	}
}

// fanInServer serves a fan-in fixture lake over the REST API.
func fanInServer(t *testing.T) *httptest.Server {
	t.Helper()
	l := fanInLake(t)
	srv := httptest.NewServer(l.HTTPHandler())
	t.Cleanup(srv.Close)
	return srv
}

// TestV1QueryPerRequestFanInNDJSON drives the request-body fanin knob
// through NDJSON streaming: full result set, valid framing.
func TestV1QueryPerRequestFanInNDJSON(t *testing.T) {
	srv := fanInServer(t)
	body := `{"sql":"SELECT city, price FROM rel:hotels_rel, doc:hotels_doc","fanin":8}`
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("missing header line")
	}
	rows := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) > 0 && line[0] == '{' {
			// The only object allowed after the header is the clean-end
			// stats trailer; an error trailer fails the test.
			var trailer struct {
				Stats *query.ExecStats `json:"stats"`
			}
			if err := json.Unmarshal(line, &trailer); err != nil || trailer.Stats == nil {
				t.Fatalf("unexpected object line (error trailer?): %s", line)
			}
			if sc.Scan() {
				t.Fatalf("stats trailer was not the final line; next: %s", sc.Bytes())
			}
			break
		}
		var row []string
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("row line %q: %v", line, err)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 600 {
		t.Fatalf("streamed %d rows with fanin=8, want 600", rows)
	}
}

// TestV1QueryFanInValidation: an out-of-range fanin is an invalid
// query, not a silent clamp, on both the JSON and NDJSON paths.
func TestV1QueryFanInValidation(t *testing.T) {
	srv := fanInServer(t)
	for _, body := range []string{
		`{"sql":"SELECT city FROM rel:hotels_rel","fanin":-1}`,
		`{"sql":"SELECT city FROM rel:hotels_rel","fanin":10000}`,
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
}

// TestV1QueryFanInJSONPath: the override also applies to the plain JSON
// (materializing) response shape.
func TestV1QueryFanInJSONPath(t *testing.T) {
	srv := fanInServer(t)
	resp, data := do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"SELECT city, price FROM rel:hotels_rel, doc:hotels_doc","fanin":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 600 {
		t.Fatalf("got %d rows with fanin=4, want 600", len(out.Rows))
	}
}

// TestQueryStreamFanInCancelReleases: cancelling a fanned-in query
// stream mid-flight must not leak pullers (guarded by -race + the
// WaitGroup in Close) and must surface a classified error.
func TestQueryStreamFanInCancelReleases(t *testing.T) {
	l := fanInLake(t)
	ctx, cancel := context.WithCancel(context.Background())
	it, err := l.Query(ctx, "dana", query.Request{
		SQL: "SELECT city FROM rel:hotels_rel, doc:hotels_doc", FanIn: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := it.Next(ctx); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("stream did not observe cancellation")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}
