package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"golake/internal/persist"
)

// metricsLake builds a lake with every instrumented layer exercised:
// a memory persistence backend (WAL series), two ingested datasets, a
// completed maintenance pass, and an HTTP server in front.
func metricsLake(t *testing.T) (*Lake, *httptest.Server) {
	t.Helper()
	l, err := Open(t.TempDir(), WithPersistence(persist.NewMemory()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	l.AddUser("dana", RoleDataScientist)
	ctx := context.Background()
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n2,20\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Ingest(ctx, "raw/payments.csv", []byte("id,amount\n1,10\n2,20\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.HTTPHandler())
	t.Cleanup(srv.Close)
	return l, srv
}

func scrape(t *testing.T, srv *httptest.Server) (*http.Response, string) {
	t.Helper()
	resp, body := get(t, srv, "/v1/metrics", "")
	return resp, string(body)
}

func TestMetricsEndpointCoversAllLayers(t *testing.T) {
	_, srv := metricsLake(t)
	// One executed query so the engine series have samples.
	resp, _ := do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"SELECT id FROM rel:orders"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}

	resp, body := scrape(t, srv)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	// One representative series per instrumented layer.
	for _, want := range []string{
		// HTTP middleware.
		`golake_http_requests_total{route="/v1/query",method="POST",class="2xx"} 1`,
		`golake_http_request_duration_seconds_bucket{route="/v1/query",le="+Inf"} 1`,
		"golake_http_in_flight_requests 1", // the scrape itself
		// Query engine, folded at stream close.
		`golake_query_total{outcome="ok"} 1`,
		"golake_query_rows_out_total 2",
		`golake_query_source_rows_total{source="rel:orders"} 2`,
		"golake_query_fanin_width_count 1",
		// Maintenance.
		`golake_maintenance_passes_total{mode="full"} 1`,
		"golake_maintenance_datasets_reindexed_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing series %q in scrape:\n%s", want, body)
		}
	}
	// Persistence: user records, ingests, and audit events all append,
	// so pin the counters to nonzero rather than an exact record count.
	for _, prefix := range []string{
		"golake_wal_appends_total ",
		"golake_wal_appended_bytes_total ",
		"golake_wal_append_duration_seconds_count ",
	} {
		line := grepLines(body, prefix)
		if line == "" || strings.HasSuffix(line, " 0") {
			t.Errorf("WAL series %q absent or zero: %q", prefix, line)
		}
	}
	// Every exposed family carries HELP and TYPE headers.
	for _, fam := range []string{
		"golake_http_requests_total", "golake_query_total",
		"golake_maintenance_passes_total", "golake_wal_appends_total",
	} {
		if !strings.Contains(body, "# HELP "+fam+" ") ||
			!strings.Contains(body, "# TYPE "+fam+" counter") {
			t.Errorf("family %s missing HELP/TYPE headers", fam)
		}
	}
}

// Every stage of a maintenance pass is observed exactly once per pass,
// full or incremental, however many datasets the pass covers.
func TestMaintenanceStageHistogram(t *testing.T) {
	l, srv := metricsLake(t)
	ctx := context.Background()
	for _, name := range []string{"refunds", "invoices"} {
		if _, err := l.Ingest(ctx, "raw/"+name+".csv", []byte("id,amount\n1,5\n2,7\n"), "erp", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := l.MaintainIncremental(ctx)
	if err != nil || rep.Mode != "incremental" || rep.DatasetsReindexed != 2 {
		t.Fatalf("pass = %+v, %v; want incremental over 2", rep, err)
	}
	_, body := scrape(t, srv)
	if !strings.Contains(body, "# TYPE golake_maintenance_stage_duration_seconds histogram") {
		t.Error("stage histogram family missing")
	}
	for _, stage := range []string{"explore", "knn", "rfd", "clams", "promote", "persist"} {
		want := fmt.Sprintf(`golake_maintenance_stage_duration_seconds_count{stage=%q} 2`, stage)
		if !strings.Contains(body, want) {
			t.Errorf("missing %s (one full and one incremental pass):\n%s", want, grepLines(body, "golake_maintenance_stage_duration_seconds_count"))
		}
	}
}

func TestMetricsDisabledReturns503(t *testing.T) {
	l, err := Open(t.TempDir(), WithMetrics(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if l.Metrics() != nil {
		t.Fatal("Metrics() should be nil with WithMetrics(false)")
	}
	srv := httptest.NewServer(l.HTTPHandler())
	t.Cleanup(srv.Close)
	resp, body := get(t, srv, "/v1/metrics", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
}

func TestRequestIDHeader(t *testing.T) {
	_, srv := metricsLake(t)
	// Generated when absent — and unique per request.
	resp1, _ := get(t, srv, "/v1/datasets", "dana")
	resp2, _ := get(t, srv, "/v1/datasets", "dana")
	id1, id2 := resp1.Header.Get("X-Request-ID"), resp2.Header.Get("X-Request-ID")
	if id1 == "" || id2 == "" || id1 == id2 {
		t.Errorf("generated request IDs = %q, %q", id1, id2)
	}
	// Honored when the client supplies one.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/datasets", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("echoed request ID = %q", got)
	}
}

func TestMetricsRouteLabelsAreBounded(t *testing.T) {
	_, srv := metricsLake(t)
	// Probing paths must not mint per-path label values.
	for i := 0; i < 3; i++ {
		resp, _ := get(t, srv, fmt.Sprintf("/no/such/path/%d", i), "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("probe status = %d", resp.StatusCode)
		}
	}
	_, body := scrape(t, srv)
	if !strings.Contains(body, `golake_http_requests_total{route="unmatched",method="GET",class="4xx"} 3`) {
		t.Errorf("probes not folded into the unmatched route:\n%s", body)
	}
	if strings.Contains(body, "no/such/path") {
		t.Error("raw request path leaked into metric labels")
	}
}

func TestExplainAnalyzeOverHTTP(t *testing.T) {
	_, srv := metricsLake(t)
	resp, body := do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"EXPLAIN ANALYZE SELECT id FROM rel:orders"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out struct {
		Plan struct {
			Analyzed *struct {
				RowsOut int64 `json:"rows_out"`
				Trace   []struct {
					Name       string `json:"name"`
					DurationNs int64  `json:"duration_ns"`
				} `json:"trace"`
			} `json:"analyzed"`
		} `json:"plan"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("body = %s (%v)", body, err)
	}
	if out.Plan.Analyzed == nil {
		t.Fatalf("no analyzed stats in plan: %s", body)
	}
	if out.Plan.Analyzed.RowsOut != 2 {
		t.Errorf("analyzed rows_out = %d", out.Plan.Analyzed.RowsOut)
	}
	names := map[string]bool{}
	for _, sp := range out.Plan.Analyzed.Trace {
		names[sp.Name] = true
	}
	for _, want := range []string{"plan", "open-sources", "execute"} {
		if !names[want] {
			t.Errorf("analyzed trace missing span %q (have %v)", want, names)
		}
	}
	// The analyze body flag is the same capability without SQL syntax.
	resp, body = do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"SELECT id FROM rel:orders","analyze":true}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"analyzed"`) {
		t.Errorf("analyze flag: status = %d, body %s", resp.StatusCode, body)
	}
}

func TestNDJSONTrailerCarriesTraceSpans(t *testing.T) {
	_, srv := metricsLake(t)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/query",
		strings.NewReader(`{"sql":"SELECT id FROM rel:orders"}`))
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
	dec := json.NewDecoder(resp.Body)
	var last json.RawMessage
	for dec.More() {
		var line json.RawMessage
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		last = line
	}
	var trailer struct {
		Stats *struct {
			Trace []struct {
				Name string `json:"name"`
			} `json:"trace"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(last, &trailer); err != nil || trailer.Stats == nil {
		t.Fatalf("last NDJSON line is not a stats trailer: %s (%v)", last, err)
	}
	names := map[string]bool{}
	for _, sp := range trailer.Stats.Trace {
		names[sp.Name] = true
	}
	for _, want := range []string{"plan", "open-sources", "execute", "serialize"} {
		if !names[want] {
			t.Errorf("trailer trace missing span %q (have %v)", want, names)
		}
	}
}

// TestConcurrentScrapes hammers /v1/metrics while queries and ingests
// are in flight; run with -race this pins the registry's and the
// middleware's concurrency safety end to end.
func TestConcurrentScrapes(t *testing.T) {
	l, srv := metricsLake(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, _ := scrape(t, srv)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape status = %d", resp.StatusCode)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, _ := do(t, srv, http.MethodPost, "/v1/query", "dana",
					`{"sql":"SELECT id FROM rel:orders","fanin":2}`)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status = %d", resp.StatusCode)
					return
				}
			}
		}()
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				path := fmt.Sprintf("raw/scrape_%d_%d.csv", g, i)
				if _, err := l.Ingest(context.Background(), path,
					[]byte("id,v\n1,a\n"), "gen", "dana"); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The final scrape must parse as exposition text and account for
	// every query the workload ran.
	_, body := scrape(t, srv)
	if !strings.Contains(body, `golake_query_total{outcome="ok"} 40`) {
		t.Errorf("query outcome counter wrong after workload:\n%s", grepLines(body, "golake_query_total"))
	}
}

// grepLines filters exposition text down to lines mentioning substr,
// keeping failure output readable.
func grepLines(s, substr string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}

// The last reopen's duration is one figure in three places: the
// golake_replay_duration_seconds gauge, GET /v1/maintenance's replay
// block, and the "persist: replayed" log line.
func TestReplayDurationIsOneFigureEverywhere(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	l, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n2,20\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.HTTPHandler())
	_, body := scrape(t, srv)
	srv.Close()
	if line := grepLines(body, "golake_replay_duration_seconds "); !strings.HasSuffix(line, " 0") {
		t.Errorf("a lake opened on an empty backend replayed nothing, gauge line %q", line)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	re, err := Open(t.TempDir(), WithPersistence(mem),
		WithLogger(slog.New(slog.NewJSONHandler(&logs, nil))))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	replay := re.MaintenanceStatus().Durability.Replay
	if replay == nil || replay.Duration <= 0 {
		t.Fatalf("replay stats = %+v, want a positive duration", replay)
	}
	srv = httptest.NewServer(re.HTTPHandler())
	defer srv.Close()
	_, body = scrape(t, srv)
	want := fmt.Sprintf("golake_replay_duration_seconds %v", replay.Duration.Seconds())
	if !strings.Contains(body, want+"\n") {
		t.Errorf("scrape has %q, want %q", grepLines(body, "golake_replay_duration_seconds "), want)
	}
	var status struct {
		Durability struct {
			Replay struct {
				DurationNS int64 `json:"duration_ns"`
			} `json:"replay"`
		} `json:"durability"`
	}
	_, raw := get(t, srv, "/v1/maintenance", "dana")
	if err := json.Unmarshal(raw, &status); err != nil {
		t.Fatalf("maintenance status: %v in %s", err, raw)
	}
	if got := time.Duration(status.Durability.Replay.DurationNS); got != replay.Duration {
		t.Errorf("GET /v1/maintenance replay duration = %v, want %v", got, replay.Duration)
	}
	var logged struct {
		Duration int64 `json:"duration"`
	}
	line := grepLines(logs.String(), `"persist: replayed"`)
	if err := json.Unmarshal([]byte(line), &logged); err != nil {
		t.Fatalf("replayed log line %q: %v", line, err)
	}
	if time.Duration(logged.Duration) != replay.Duration {
		t.Errorf("log line duration = %v, want %v", time.Duration(logged.Duration), replay.Duration)
	}
}
