package core

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"golake/internal/admission"
	"golake/internal/query"
	"golake/lakeerr"
)

// admissionLake builds a maintained two-dataset lake fronted by an
// admission controller with the given config.
func admissionLake(t *testing.T, cfg admission.Config) *Lake {
	t.Helper()
	l, err := Open(t.TempDir(), WithAdmission(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	l.AddUser("dana", RoleDataScientist)
	ctx := context.Background()
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n2,20\n3,15\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	return l
}

// leakCheck fails the test if the goroutine count has not returned to
// its baseline shortly after the test body finishes.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	})
}

// TestLakeQueryAdmissionQuota: with a one-slot quota, a second query
// is shed with a typed resource_exhausted error carrying a Retry-After
// hint, and releasing the slot re-admits the user.
func TestLakeQueryAdmissionQuota(t *testing.T) {
	l := admissionLake(t, admission.Config{MaxConcurrentPerUser: 1})
	ctx := context.Background()
	st, err := l.Query(ctx, "dana", query.Request{SQL: "SELECT id FROM rel:orders"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Query(ctx, "dana", query.Request{SQL: "SELECT id FROM rel:orders"})
	if !lakeerr.IsResourceExhausted(err) {
		t.Fatalf("second query = %v, want resource_exhausted", err)
	}
	if !errors.Is(err, admission.ErrShed) {
		t.Errorf("shed error should wrap ErrShed: %v", err)
	}
	if ra, ok := admission.RetryAfterOf(err); !ok || ra <= 0 {
		t.Errorf("RetryAfterOf = %v, %v", ra, ok)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := l.Query(ctx, "dana", query.Request{SQL: "SELECT id FROM rel:orders"})
	if err != nil {
		t.Fatalf("query after release: %v", err)
	}
	_ = st2.Close()
}

// TestLakeQueryAdmissionDefaults: the controller's default timeout and
// memory budget fold into the request and surface on the plan.
func TestLakeQueryAdmissionDefaults(t *testing.T) {
	l := admissionLake(t, admission.Config{
		DefaultTimeout:    5 * time.Second,
		DefaultMemoryRows: 1000,
	})
	st, err := l.Query(context.Background(), "dana", query.Request{SQL: "SELECT id FROM rel:orders"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if p := st.Plan(); p.Timeout != 5*time.Second || p.MemoryRows != 1000 {
		t.Errorf("plan timeout/budget = %v/%d, want 5s/1000", p.Timeout, p.MemoryRows)
	}
}

// TestLakeQueryBudgetResourceExhausted: a blown per-query memory
// budget surfaces as a typed resource_exhausted stream error.
func TestLakeQueryBudgetResourceExhausted(t *testing.T) {
	l := admissionLake(t, admission.Config{})
	st, err := l.Query(context.Background(), "dana", query.Request{
		SQL:        "SELECT id FROM rel:orders ORDER BY id",
		MemoryRows: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var lastErr error
	for {
		_, err := st.Next(context.Background())
		if err != nil {
			lastErr = err
			break
		}
	}
	if !lakeerr.IsResourceExhausted(lastErr) {
		t.Fatalf("stream error = %v, want resource_exhausted", lastErr)
	}
	if !errors.Is(lastErr, query.ErrBudgetExceeded) {
		t.Errorf("should wrap ErrBudgetExceeded: %v", lastErr)
	}
}

// TestHTTPBurstShedsWith429: the acceptance scenario over the wire.
// Quota 2 concurrent per user with a 2-deep queue; a burst of 16
// concurrent queries (held running by the fault hook) yields exactly 2
// running + 2 queued, the remaining 12 shed as HTTP 429 with a
// Retry-After header, and the held queries complete once unblocked.
// No goroutines leak.
func TestHTTPBurstShedsWith429(t *testing.T) {
	leakCheck(t)
	l := admissionLake(t, admission.Config{
		MaxConcurrentPerUser: 2,
		MaxQueuedPerUser:     2,
		MaxQueueWait:         30 * time.Second,
		RetryAfter:           2 * time.Second,
	})
	// Hold every running query on its first row until released, so the
	// burst observes a stable saturated state. A query reaches its first
	// row only after admission has counted it.
	block := make(chan struct{})
	running := make(chan struct{}, 2)
	l.Engine.Fault = func(stage string) error {
		if stage == "next" {
			select {
			case running <- struct{}{}:
			default:
			}
			<-block
		}
		return nil
	}
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()

	const burst = 16
	type outcome struct {
		status     int
		retryAfter string
		body       string
	}
	results := make(chan outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/query",
				strings.NewReader(`{"sql":"SELECT id FROM rel:orders"}`))
			req.Header.Set("X-Lake-User", "dana")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				results <- outcome{status: -1}
				return
			}
			defer resp.Body.Close()
			buf := make([]byte, 512)
			n, _ := resp.Body.Read(buf)
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After"), string(buf[:n])}
		}()
	}
	// Everything admitted or queued is blocked on the fault hook, so
	// exactly burst - (quota + queue depth) requests come back shed.
	var shed []outcome
	for len(shed) < burst-4 {
		o := <-results
		if o.status != http.StatusTooManyRequests {
			t.Fatalf("early response status = %d (%s), want 429", o.status, o.body)
		}
		shed = append(shed, o)
	}
	for _, o := range shed {
		if o.retryAfter == "" {
			t.Error("429 without Retry-After header")
		}
		if !strings.Contains(o.body, string(lakeerr.CodeResourceExhausted)) {
			t.Errorf("429 body lacks typed code: %s", o.body)
		}
	}
	for i := 0; i < 2; i++ {
		select {
		case <-running:
		case <-time.After(5 * time.Second):
			t.Fatal("admitted queries never reached their first row")
		}
	}
	if g := l.metrics.admInFlight.With("dana").Value(); g != 2 {
		t.Errorf("in-flight during saturation = %v, want exactly 2", g)
	}
	close(block)
	wg.Wait()
	close(results)
	var ok int
	for o := range results {
		if o.status == http.StatusOK {
			ok++
		}
	}
	if ok != 4 {
		t.Errorf("completed queries = %d, want 4 (2 running + 2 queued)", ok)
	}
}

// TestHTTPGlobalSaturation503: at the global in-flight ceiling the
// server sheds with 503 Service Unavailable (plus Retry-After), not
// the per-user 429.
func TestHTTPGlobalSaturation503(t *testing.T) {
	leakCheck(t)
	l := admissionLake(t, admission.Config{MaxInFlight: 1})
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	st, err := l.Query(context.Background(), "dana", query.Request{SQL: "SELECT id FROM rel:orders"})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"SELECT id FROM rel:orders"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	if code, _ := envelope(t, body); code != string(lakeerr.CodeUnavailable) {
		t.Errorf("code = %q, want unavailable", code)
	}
	_ = st.Close()
	resp, _ = do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"SELECT id FROM rel:orders"}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after drain status = %d, want 200 (traffic re-admitted)", resp.StatusCode)
	}
}

// TestNDJSONDeadlineTrailer: a deadline that expires mid-stream is
// framed as the typed in-band trailer {"error":{"code":
// "deadline_exceeded"}} — the HTTP status is already committed, so the
// code travels in the NDJSON tail.
func TestNDJSONDeadlineTrailer(t *testing.T) {
	l := admissionLake(t, admission.Config{})
	// Slow each pull past the timeout, so the deadline expires after
	// the header is on the wire but before the stream completes.
	l.Engine.Fault = func(stage string) error {
		if stage == "next" {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	}
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/query",
		strings.NewReader(`{"sql":"SELECT id FROM rel:orders","timeout_ms":10}`))
	req.Header.Set("X-Lake-User", "dana")
	req.Header.Set("Accept", ndjsonContentType)
	resp, body := doRaw(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (stream committed before expiry)", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"code":"deadline_exceeded"`) {
		t.Fatalf("trailer = %q (full body %q), want typed deadline_exceeded error", last, body)
	}
	if !strings.Contains(lines[0], "columns") {
		t.Errorf("header line = %s", lines[0])
	}
}

// TestNDJSONBudgetTrailer: the same in-band framing for a blown memory
// budget — the trailer carries resource_exhausted.
func TestNDJSONBudgetTrailer(t *testing.T) {
	l := admissionLake(t, admission.Config{})
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/query",
		strings.NewReader(`{"sql":"SELECT id FROM rel:orders ORDER BY id","memory_rows":1}`))
	req.Header.Set("X-Lake-User", "dana")
	req.Header.Set("Accept", ndjsonContentType)
	resp, body := doRaw(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, `"code":"resource_exhausted"`) {
		t.Fatalf("trailer = %s, want typed resource_exhausted error", last)
	}
}

// doRaw performs one prepared request and slurps the body.
func doRaw(t *testing.T, req *http.Request) (*http.Response, string) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

// TestQueryRequestTimeoutAndBudgetValidation: the wire-level knobs
// reject negatives and map onto the typed request.
func TestQueryRequestTimeoutAndBudgetValidation(t *testing.T) {
	neg := -1
	if _, err := (queryRequest{SQL: "SELECT 1", TimeoutMS: &neg}).request(); !lakeerr.IsInvalidQuery(err) {
		t.Errorf("negative timeout_ms = %v, want invalid_query", err)
	}
	if _, err := (queryRequest{SQL: "SELECT 1", MemoryRows: &neg}).request(); !lakeerr.IsInvalidQuery(err) {
		t.Errorf("negative memory_rows = %v, want invalid_query", err)
	}
	ms, rows := 1500, 4096
	req, err := (queryRequest{SQL: "SELECT 1", TimeoutMS: &ms, MemoryRows: &rows}).request()
	if err != nil {
		t.Fatal(err)
	}
	if req.Timeout != 1500*time.Millisecond || req.MemoryRows != 4096 {
		t.Errorf("request = timeout %v memory %d", req.Timeout, req.MemoryRows)
	}
}

// TestAdmissionMetricsBoundedCardinality: per-user admission series
// fold users beyond the cap into "other", so the exposition stays
// bounded no matter how many tenants hit the endpoint.
func TestAdmissionMetricsBoundedCardinality(t *testing.T) {
	m := newLakeMetrics()
	for _, u := range []string{"u1", "u2", "u3"} {
		m.observeAdmitted(u)
		m.observeAdmissionReleased(u)
	}
	for i := 0; i < 30; i++ {
		m.observeAdmissionShed(strings.Repeat("x", i+1))
	}
	distinct := map[string]bool{}
	m.admUserMu.Lock()
	for u := range m.admUsers {
		distinct[u] = true
	}
	m.admUserMu.Unlock()
	if len(distinct) > admissionUserCardinality {
		t.Fatalf("tracked users = %d, want <= %d", len(distinct), admissionUserCardinality)
	}
	// A user seen before the cap keeps its own label afterwards.
	if got := m.admissionUser("u2"); got != "u2" {
		t.Errorf("sticky label = %q", got)
	}
	if got := m.admissionUser(strings.Repeat("y", 40)); got != "other" {
		t.Errorf("overflow label = %q, want other", got)
	}
}

// TestAdmissionMetricsExposed: an admitted and a shed query show up in
// the Prometheus exposition with the user label.
func TestAdmissionMetricsExposed(t *testing.T) {
	l := admissionLake(t, admission.Config{MaxConcurrentPerUser: 1})
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	st, err := l.Query(context.Background(), "dana", query.Request{SQL: "SELECT id FROM rel:orders"})
	if err != nil {
		t.Fatal(err)
	}
	// Shed one while the slot is held.
	if _, err := l.Query(context.Background(), "dana", query.Request{SQL: "SELECT id FROM rel:orders"}); err == nil {
		t.Fatal("expected shed")
	}
	_, body := scrape(t, srv)
	for _, want := range []string{
		`golake_admission_admitted_total{user="dana"} 1`,
		`golake_admission_shed_total{user="dana"} 1`,
		`golake_admission_in_flight{user="dana"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	_ = st.Close()
	_, body = scrape(t, srv)
	if !strings.Contains(body, `golake_admission_in_flight{user="dana"} 0`) {
		t.Error("in-flight gauge not decremented after release")
	}
}
