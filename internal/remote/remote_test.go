package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"golake/internal/query"
	"golake/lakeerr"
)

// memberHandler serves a canned NDJSON stream the way a member lake's
// POST /v1/query does, recording the request it saw.
type memberHandler struct {
	mu                          sync.Mutex
	lines                       []string // written after the header, verbatim
	cols                        string   // header line; "" suppresses it
	gotAuth, gotUser, gotAccept string
	calls                       int
	// abort kills the connection after the rows, before any trailer.
	abort bool
}

func (h *memberHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.gotAuth = r.Header.Get("Authorization")
	h.gotUser = r.Header.Get("X-Lake-User")
	h.gotAccept = r.Header.Get("Accept")
	h.calls++
	h.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if h.cols != "" {
		fmt.Fprintln(w, h.cols)
	}
	for _, ln := range h.lines {
		fmt.Fprintln(w, ln)
	}
	if h.abort {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // connection drops mid-stream
	}
}

func openStream(t *testing.T, h http.Handler, opts Options) (query.RowIterator, error) {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c := New("east", srv.URL, opts)
	return c.OpenStream(context.Background(), query.RemoteSpec{SQL: "SELECT city FROM hotels", User: "dana"})
}

func drain(t *testing.T, it query.RowIterator) ([]query.Row, error) {
	t.Helper()
	var rows []query.Row
	for {
		row, err := it.Next(context.Background())
		if errors.Is(err, io.EOF) {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
}

func TestOpenStreamHappyPath(t *testing.T) {
	h := &memberHandler{
		cols:  `{"columns":["city","price"]}`,
		lines: []string{`["ams","10"]`, `["del","20"]`, `{"stats":{"rows_out":2}}`},
	}
	it, err := openStream(t, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if got := it.Columns(); len(got) != 2 || got[0] != "city" {
		t.Errorf("columns = %v", got)
	}
	rows, err := drain(t, it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1][1] != "20" {
		t.Errorf("rows = %v", rows)
	}
	// Terminal EOF is sticky.
	if _, err := it.Next(context.Background()); !errors.Is(err, io.EOF) {
		t.Errorf("post-EOF Next = %v", err)
	}
	// The hop carried the identity and the streaming accept header.
	if h.gotUser != "dana" || !strings.Contains(h.gotAccept, "application/x-ndjson") {
		t.Errorf("headers: user=%q accept=%q", h.gotUser, h.gotAccept)
	}
}

func TestOpenStreamForwardsBearerToken(t *testing.T) {
	h := &memberHandler{cols: `{"columns":["c"]}`, lines: []string{`{"stats":{}}`}}
	it, err := openStream(t, h, Options{Token: "sekret"})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if h.gotAuth != "Bearer sekret" {
		t.Errorf("Authorization = %q", h.gotAuth)
	}
}

func TestOpenStreamNon200Envelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":{"code":"not_found","message":"no table hotels"}}`)
	}))
	t.Cleanup(srv.Close)
	c := New("east", srv.URL, Options{})
	_, err := c.OpenStream(context.Background(), query.RemoteSpec{SQL: "SELECT * FROM hotels"})
	if lakeerr.CodeOf(err) != lakeerr.CodeNotFound {
		t.Fatalf("err = %v (code %s), want not_found", err, lakeerr.CodeOf(err))
	}
	if !strings.Contains(err.Error(), "east") {
		t.Errorf("error does not name the member: %v", err)
	}
}

func TestOpenStreamUnknownCodeDegradesToInternal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, `{"error":{"code":"listing_paused","message":"future code"}}`)
	}))
	t.Cleanup(srv.Close)
	c := New("east", srv.URL, Options{})
	_, err := c.OpenStream(context.Background(), query.RemoteSpec{SQL: "SELECT 1"})
	if lakeerr.CodeOf(err) != lakeerr.CodeInternal {
		t.Fatalf("err = %v (code %s), want internal", err, lakeerr.CodeOf(err))
	}
}

func TestInBandErrorTrailer(t *testing.T) {
	h := &memberHandler{
		cols:  `{"columns":["c"]}`,
		lines: []string{`["x"]`, `{"error":{"code":"resource_exhausted","message":"budget blown"}}`},
	}
	it, err := openStream(t, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	rows, err := drain(t, it)
	if len(rows) != 1 {
		t.Errorf("rows before failure = %v", rows)
	}
	if lakeerr.CodeOf(err) != lakeerr.CodeResourceExhausted {
		t.Fatalf("err = %v (code %s), want resource_exhausted", err, lakeerr.CodeOf(err))
	}
	// Sticky: the stream stays failed.
	if _, err2 := it.Next(context.Background()); lakeerr.CodeOf(err2) != lakeerr.CodeResourceExhausted {
		t.Errorf("post-failure Next = %v", err2)
	}
}

// TestTruncatedStreamIsTypedError pins the connection-drop satellite: a
// server killed mid-stream must surface as a typed unavailable error,
// never a silent short result.
func TestTruncatedStreamIsTypedError(t *testing.T) {
	h := &memberHandler{
		cols:  `{"columns":["c"]}`,
		lines: []string{`["r1"]`, `["r2"]`},
		abort: true, // connection drops before any trailer
	}
	it, err := openStream(t, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	rows, err := drain(t, it)
	if err == nil {
		t.Fatalf("drain returned a silent short result of %d rows", len(rows))
	}
	if lakeerr.CodeOf(err) != lakeerr.CodeUnavailable {
		t.Fatalf("err = %v (code %s), want unavailable", err, lakeerr.CodeOf(err))
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Errorf("error should say truncated: %v", err)
	}
}

// TestErrorAsFirstLine covers a member that fails before emitting its
// header: the open itself returns the typed error.
func TestErrorAsFirstLine(t *testing.T) {
	h := &memberHandler{cols: `{"error":{"code":"invalid_query","message":"parse"}}`}
	_, err := openStream(t, h, Options{})
	if lakeerr.CodeOf(err) != lakeerr.CodeInvalidQuery {
		t.Fatalf("err = %v (code %s), want invalid_query", err, lakeerr.CodeOf(err))
	}
}

func TestMissingHeaderIsInternal(t *testing.T) {
	h := &memberHandler{cols: `["row","before","header"]`}
	_, err := openStream(t, h, Options{})
	if lakeerr.CodeOf(err) != lakeerr.CodeInternal {
		t.Fatalf("err = %v (code %s), want internal", err, lakeerr.CodeOf(err))
	}
}

// failingThenOKTransport fails the first n round trips at the transport
// level, then delegates to the real transport.
type failingThenOKTransport struct {
	mu    sync.Mutex
	fails int
	next  http.RoundTripper
}

func (f *failingThenOKTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	f.mu.Lock()
	fail := f.fails > 0
	if fail {
		f.fails--
	}
	f.mu.Unlock()
	if fail {
		return nil, errors.New("connection refused")
	}
	return f.next.RoundTrip(r)
}

type countingObserver struct {
	mu       sync.Mutex
	retries  int
	requests []string
	rows     int64
}

func (o *countingObserver) RemoteRequest(member, outcome string, d time.Duration) {
	o.mu.Lock()
	o.requests = append(o.requests, outcome)
	o.mu.Unlock()
}

func (o *countingObserver) RemoteRetry(member string) {
	o.mu.Lock()
	o.retries++
	o.mu.Unlock()
}

func (o *countingObserver) RemoteRows(member string, n int64) {
	o.mu.Lock()
	o.rows += n
	o.mu.Unlock()
}

func TestConnectRetriesThenSucceeds(t *testing.T) {
	h := &memberHandler{cols: `{"columns":["c"]}`, lines: []string{`["v"]`, `{"stats":{}}`}}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	hc := &http.Client{Transport: &failingThenOKTransport{fails: 2, next: http.DefaultTransport}}
	c := New("east", srv.URL, Options{Client: hc, RetryBackoff: time.Millisecond})
	obs := &countingObserver{}
	c.SetObserver(obs)
	it, err := c.OpenStream(context.Background(), query.RemoteSpec{SQL: "SELECT c FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(t, it); err != nil {
		t.Fatal(err)
	}
	_ = it.Close()
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.retries != 2 {
		t.Errorf("retries = %d, want 2", obs.retries)
	}
	if len(obs.requests) != 1 || obs.requests[0] != "ok" {
		t.Errorf("requests = %v", obs.requests)
	}
	if obs.rows != 1 {
		t.Errorf("rows = %d", obs.rows)
	}
}

func TestConnectRetriesExhausted(t *testing.T) {
	hc := &http.Client{Transport: &failingThenOKTransport{fails: 100, next: http.DefaultTransport}}
	c := New("east", "http://unused.invalid", Options{Client: hc, RetryBackoff: time.Millisecond})
	obs := &countingObserver{}
	c.SetObserver(obs)
	_, err := c.OpenStream(context.Background(), query.RemoteSpec{SQL: "SELECT 1"})
	if lakeerr.CodeOf(err) != lakeerr.CodeUnavailable {
		t.Fatalf("err = %v (code %s), want unavailable", err, lakeerr.CodeOf(err))
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.retries != DefaultConnectRetries {
		t.Errorf("retries = %d, want %d", obs.retries, DefaultConnectRetries)
	}
	if len(obs.requests) != 1 || obs.requests[0] != string(lakeerr.CodeUnavailable) {
		t.Errorf("requests = %v", obs.requests)
	}
}

func TestTimeoutClassifiesDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	t.Cleanup(srv.Close)
	c := New("slow", srv.URL, Options{Timeout: 20 * time.Millisecond, ConnectRetries: -1})
	_, err := c.OpenStream(context.Background(), query.RemoteSpec{SQL: "SELECT 1"})
	if lakeerr.CodeOf(err) != lakeerr.CodeDeadlineExceeded {
		t.Fatalf("err = %v (code %s), want deadline_exceeded", err, lakeerr.CodeOf(err))
	}
}

func TestEarlyCloseReportsAborted(t *testing.T) {
	h := &memberHandler{
		cols:  `{"columns":["c"]}`,
		lines: []string{`["a"]`, `["b"]`, `{"stats":{}}`},
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c := New("east", srv.URL, Options{})
	obs := &countingObserver{}
	c.SetObserver(obs)
	it, err := c.OpenStream(context.Background(), query.RemoteSpec{SQL: "SELECT c FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	_ = it.Close() // idempotent
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.requests) != 1 || obs.requests[0] != "aborted" {
		t.Errorf("requests = %v, want [aborted]", obs.requests)
	}
}

func TestRingDeterministicAndCovering(t *testing.T) {
	members := []string{"west", "east", "north"}
	a := NewRing(members, 0)
	b := NewRing([]string{"north", "west", "east"}, 0) // order must not matter
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("dataset_%d", i)
		ma, ok := a.Locate(key)
		if !ok {
			t.Fatal("Locate on non-empty ring returned !ok")
		}
		mb, _ := b.Locate(key)
		if ma != mb {
			t.Fatalf("placement of %q depends on member order: %s vs %s", key, ma, mb)
		}
		counts[ma]++
	}
	for _, m := range members {
		if counts[m] == 0 {
			t.Errorf("member %s owns no keys: %v", m, counts)
		}
	}
}

// TestRingStability pins the consistent-hashing property: removing one
// member only moves the keys that member owned.
func TestRingStability(t *testing.T) {
	full := NewRing([]string{"a", "b", "c"}, 0)
	smaller := NewRing([]string{"a", "b"}, 0)
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%d", i)
		before, _ := full.Locate(key)
		after, _ := smaller.Locate(key)
		if before != "c" && before != after {
			t.Fatalf("key %q moved from surviving member %s to %s", key, before, after)
		}
		if before == "c" {
			moved++
		}
	}
	if moved == 0 {
		t.Error("member c owned nothing; stability test is vacuous")
	}
}

func TestRingEmpty(t *testing.T) {
	if _, ok := NewRing(nil, 0).Locate("x"); ok {
		t.Error("empty ring located a member")
	}
	if got := NewRing([]string{"b", "a"}, 4).Members(); len(got) != 2 || got[0] != "a" {
		t.Errorf("Members = %v", got)
	}
}
