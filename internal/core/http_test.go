package core

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func apiLake(t *testing.T) *httptest.Server {
	t.Helper()
	l := testLake(t)
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
	return srv
}

func do(t *testing.T, srv *httptest.Server, method, path, user, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if user != "" {
		req.Header.Set("X-Lake-User", user)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, srv *httptest.Server, path, user string) (*http.Response, []byte) {
	t.Helper()
	return do(t, srv, http.MethodGet, path, user, "")
}

// envelope decodes the v1 error wire shape.
func envelope(t *testing.T, body []byte) (code, message string) {
	t.Helper()
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error envelope = %s (%v)", body, err)
	}
	return e.Error.Code, e.Error.Message
}

// pageOf decodes the v1 paginated list envelope with raw items.
type pageOf struct {
	Items      []json.RawMessage `json:"items"`
	Total      int               `json:"total"`
	Limit      int               `json:"limit"`
	NextCursor string            `json:"next_cursor"`
}

func TestV1DatasetsPagination(t *testing.T) {
	srv := apiLake(t)
	resp, body := get(t, srv, "/v1/datasets", "dana")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var pg pageOf
	if err := json.Unmarshal(body, &pg); err != nil {
		t.Fatal(err)
	}
	if pg.Total != 2 || len(pg.Items) != 2 || pg.Limit != defaultPageLimit || pg.NextCursor != "" {
		t.Errorf("page = total %d items %d limit %d cursor %q", pg.Total, len(pg.Items), pg.Limit, pg.NextCursor)
	}
	// A limit window links to the rest through next_cursor.
	_, body = get(t, srv, "/v1/datasets?limit=1", "dana")
	if err := json.Unmarshal(body, &pg); err != nil {
		t.Fatal(err)
	}
	if pg.Total != 2 || len(pg.Items) != 1 || pg.NextCursor == "" {
		t.Fatalf("windowed page = %+v", pg)
	}
	_, body = get(t, srv, "/v1/datasets?limit=1&cursor="+pg.NextCursor, "dana")
	pg = pageOf{}
	if err := json.Unmarshal(body, &pg); err != nil {
		t.Fatal(err)
	}
	if pg.Total != 2 || len(pg.Items) != 1 || pg.NextCursor != "" {
		t.Errorf("last page = %+v", pg)
	}
	// A cursor past the end yields an empty (not null) items array.
	_, body = get(t, srv, "/v1/datasets?cursor="+encodeCursor(cursorKeyset+"~"), "dana")
	if !strings.Contains(string(body), `"items":[]`) {
		t.Errorf("past-end page should encode items as []: %s", body)
	}
}

func TestV1PaginationBounds(t *testing.T) {
	srv := apiLake(t)
	for _, path := range []string{
		"/v1/datasets?limit=-1",
		"/v1/datasets?limit=x",
		"/v1/datasets?offset=-2",
		"/v1/lineage?entity=raw/orders.csv&limit=nope",
		"/v1/audit?entity=raw/orders.csv&offset=-1",
	} {
		resp, body := get(t, srv, path, "gov")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
		if code, _ := envelope(t, body); code != "invalid_query" {
			t.Errorf("%s code = %q", path, code)
		}
	}
	// A huge limit clamps instead of failing.
	resp, _ := get(t, srv, "/v1/datasets?limit=999999", "dana")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("clamped limit status = %d", resp.StatusCode)
	}
	// An explicit limit=0 is honored: empty page, real total.
	resp, body := get(t, srv, "/v1/datasets?limit=0", "dana")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("limit=0 status = %d", resp.StatusCode)
	}
	var pg pageOf
	if err := json.Unmarshal(body, &pg); err != nil || len(pg.Items) != 0 || pg.Total != 2 {
		t.Errorf("limit=0 page = %s (%v)", body, err)
	}
}

func TestV1Ingestion(t *testing.T) {
	srv := apiLake(t)
	resp, body := do(t, srv, http.MethodPost, "/v1/datasets", "dana",
		`{"path":"raw/refunds.csv","source":"erp","content":"id,amt\n1,5\n"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest status = %d: %s", resp.StatusCode, body)
	}
	var created map[string]any
	if err := json.Unmarshal(body, &created); err != nil || created["store"] != "relational" {
		t.Errorf("created = %s (%v)", body, err)
	}
	// Re-ingesting the same path is a conflict.
	resp, body = do(t, srv, http.MethodPost, "/v1/datasets", "dana",
		`{"path":"raw/refunds.csv","source":"erp","content":"id,amt\n1,5\n"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("conflict status = %d", resp.StatusCode)
	}
	if code, _ := envelope(t, body); code != "conflict" {
		t.Errorf("conflict code = %q", code)
	}
	// Unknown users cannot ingest.
	resp, body = do(t, srv, http.MethodPost, "/v1/datasets", "mallory",
		`{"path":"raw/x.csv","content":"a\n1\n"}`)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("unknown ingest status = %d", resp.StatusCode)
	}
	if code, _ := envelope(t, body); code != "unauthorized" {
		t.Errorf("unknown ingest code = %q", code)
	}
	// Bad body.
	resp, _ = do(t, srv, http.MethodPost, "/v1/datasets", "dana", `{"content":"no path"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body status = %d", resp.StatusCode)
	}
	// The new dataset is queryable after maintenance... but even before,
	// it shows in the catalog listing.
	_, body = get(t, srv, "/v1/datasets?limit=10", "dana")
	if !strings.Contains(string(body), "raw/refunds.csv") {
		t.Errorf("ingested dataset missing from listing: %s", body)
	}
}

func TestV1Metadata(t *testing.T) {
	srv := apiLake(t)
	resp, body := get(t, srv, "/v1/metadata?id=raw/orders.csv", "dana")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metadata status = %d", resp.StatusCode)
	}
	var md map[string]any
	if err := json.Unmarshal(body, &md); err != nil {
		t.Fatal(err)
	}
	attrs, _ := md["attributes"].(map[string]any)
	if attrs["total"] != "int" {
		t.Errorf("attributes = %v", attrs)
	}
	resp, body = get(t, srv, "/v1/metadata?id=ghost", "dana")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing metadata status = %d", resp.StatusCode)
	}
	if code, _ := envelope(t, body); code != "not_found" {
		t.Errorf("missing metadata code = %q", code)
	}
}

func TestV1ExploreAllModes(t *testing.T) {
	srv := apiLake(t)
	for _, tc := range []struct {
		name, body string
	}{
		{"join-column", `{"mode":"join-column","table":"orders","column":"id","k":3}`},
		{"populate", `{"mode":"populate","table":"orders","k":3}`},
		{"task", `{"mode":"task","table":"orders","task":"augment","k":3}`},
	} {
		resp, body := do(t, srv, http.MethodPost, "/v1/explore", "dana", tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d: %s", tc.name, resp.StatusCode, body)
		}
		var res []map[string]any
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		found := false
		for _, r := range res {
			if r["Table"] == "payments" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: payments not found: %s", tc.name, body)
		}
	}
}

func TestV1ExploreValidation(t *testing.T) {
	srv := apiLake(t)
	cases := []struct {
		body   string
		user   string
		status int
		code   string
	}{
		{`{"mode":"warp","table":"orders"}`, "dana", http.StatusBadRequest, "invalid_query"},
		{`{"mode":"join-column","table":"orders"}`, "dana", http.StatusBadRequest, "invalid_query"},
		{`{"mode":"task","table":"orders","task":"destroy"}`, "dana", http.StatusBadRequest, "invalid_query"},
		{`{"mode":"populate","table":"orders","k":-5}`, "dana", http.StatusBadRequest, "invalid_query"},
		{`not json`, "dana", http.StatusBadRequest, "invalid_query"},
		{`{"mode":"populate","table":"ghost"}`, "dana", http.StatusNotFound, "not_found"},
		{`{"mode":"populate","table":"orders"}`, "mallory", http.StatusForbidden, "unauthorized"},
		// Auth runs before the table lookup: an unregistered user must
		// not learn whether a table exists from the 403/404 difference.
		{`{"mode":"populate","table":"ghost"}`, "mallory", http.StatusForbidden, "unauthorized"},
	}
	for _, tc := range cases {
		resp, body := do(t, srv, http.MethodPost, "/v1/explore", tc.user, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("explore %s as %s: status = %d, want %d", tc.body, tc.user, resp.StatusCode, tc.status)
			continue
		}
		if code, _ := envelope(t, body); code != tc.code {
			t.Errorf("explore %s: code = %q, want %q", tc.body, code, tc.code)
		}
	}
}

func TestV1QueryAndTypedErrors(t *testing.T) {
	srv := apiLake(t)
	resp, body := do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"SELECT id FROM rel:orders WHERE total > 15"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d: %s", resp.StatusCode, body)
	}
	var qr struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Rows[0][0] != "2" {
		t.Errorf("query result = %+v", qr)
	}
	// The typed-error contract, one scenario per taxonomy code.
	cases := []struct {
		name, body, user string
		status           int
		code             string
	}{
		{"syntax", `{"sql":"SELEKT id FROM rel:orders"}`, "dana", http.StatusBadRequest, "invalid_query"},
		{"empty body", `not json`, "dana", http.StatusBadRequest, "invalid_query"},
		{"unknown source", `{"sql":"SELECT * FROM rel:ghost"}`, "dana", http.StatusNotFound, "not_found"},
		{"unknown prefix", `{"sql":"SELECT * FROM bad:orders"}`, "dana", http.StatusBadRequest, "invalid_query"},
		// The polystore has no graph member: graph: is an unknown prefix.
		{"graph source", `{"sql":"SELECT * FROM graph:person"}`, "dana", http.StatusBadRequest, "invalid_query"},
		{"graph source explain", `{"sql":"EXPLAIN SELECT * FROM graph:person"}`, "dana", http.StatusBadRequest, "invalid_query"},
		{"graph source explain flag", `{"sql":"SELECT id FROM graph:person","explain":true}`, "dana", http.StatusBadRequest, "invalid_query"},
		{"unknown user", `{"sql":"SELECT * FROM rel:orders"}`, "mallory", http.StatusForbidden, "unauthorized"},
	}
	for _, tc := range cases {
		resp, body := do(t, srv, http.MethodPost, "/v1/query", tc.user, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		code, msg := envelope(t, body)
		if code != tc.code || msg == "" {
			t.Errorf("%s: envelope = %q %q, want code %q", tc.name, code, msg, tc.code)
		}
	}
}

func TestV1LineageAndAudit(t *testing.T) {
	srv := apiLake(t)
	resp, body := get(t, srv, "/v1/lineage?entity=raw/orders.csv", "dana")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lineage status = %d", resp.StatusCode)
	}
	var pg pageOf
	if err := json.Unmarshal(body, &pg); err != nil || pg.Total != 0 || pg.Items == nil {
		t.Errorf("lineage = %s (%v)", body, err)
	}
	resp, body = get(t, srv, "/v1/lineage?entity=ghost", "dana")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing lineage status = %d", resp.StatusCode)
	}
	if code, _ := envelope(t, body); code != "not_found" {
		t.Errorf("missing lineage code = %q", code)
	}
	// Audit: role-gated, paginated.
	resp, body = get(t, srv, "/v1/audit?entity=raw/orders.csv", "dana")
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("non-governance audit status = %d", resp.StatusCode)
	}
	if code, _ := envelope(t, body); code != "unauthorized" {
		t.Errorf("non-governance audit code = %q", code)
	}
	resp, body = get(t, srv, "/v1/audit?entity=raw/orders.csv&limit=1", "gov")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("governance audit status = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pg); err != nil || pg.Total < 1 || len(pg.Items) != 1 {
		t.Errorf("audit page = %s (%v)", body, err)
	}
}

func TestV1SwampAndEmptyLists(t *testing.T) {
	srv := apiLake(t)
	resp, body := get(t, srv, "/v1/swamp", "dana")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swamp status = %d", resp.StatusCode)
	}
	var rep SwampReport
	if err := json.Unmarshal(body, &rep); err != nil || rep.Datasets != 2 {
		t.Errorf("swamp = %s", body)
	}
	// A healthy lake's swamp list encodes as [], not null.
	if !strings.Contains(string(body), `"Swamp":[]`) {
		t.Errorf("swamp list should encode as []: %s", body)
	}
	// Empty lists page as "items":[], not null: an empty lake's
	// catalog, and a dataset with no upstream.
	empty := testLake(t)
	esrv := httptest.NewServer(empty.HTTPHandler())
	defer esrv.Close()
	for _, c := range []struct {
		srv  *httptest.Server
		path string
	}{
		{esrv, "/v1/datasets"},
		{srv, "/v1/lineage?entity=raw/orders.csv"},
	} {
		_, body := get(t, c.srv, c.path, "dana")
		if !strings.Contains(string(body), `"items":[]`) {
			t.Errorf("%s = %s, want \"items\":[]", c.path, body)
		}
	}
}

// TestUnversionedRoutesAreNotFound: the first release's unversioned
// routes answer 404 in the v1 error envelope — without credentials,
// with a bad bearer token, and behind a panicking handler; the flat
// {"error":"msg"} shape never appears. A known path asked with the
// wrong method keeps its 405. List endpoints refuse offset paging with
// a typed 400 that points at next_cursor.
func TestUnversionedRoutesAreNotFound(t *testing.T) {
	srv := apiLake(t)
	panicking := httptest.NewServer(testLake(t).recoverMW(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})))
	defer panicking.Close()
	send := func(base, method, path, auth string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(`{"sql":"SELECT id FROM rel:orders"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Lake-User", "gov")
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	for _, r := range []struct{ method, path string }{
		{http.MethodGet, "/datasets"},
		{http.MethodGet, "/metadata?id=raw/orders.csv"},
		{http.MethodGet, "/related?table=orders&k=2"},
		{http.MethodPost, "/query"},
		{http.MethodGet, "/lineage?entity=raw/orders.csv"},
		{http.MethodGet, "/audit?entity=raw/orders.csv"},
		{http.MethodGet, "/swamp"},
	} {
		for _, auth := range []string{"", "Bearer no-such-token"} {
			resp, body := send(srv.URL, r.method, r.path, auth)
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s (auth %q): status = %d, want 404", r.method, r.path, auth, resp.StatusCode)
			}
			if code, msg := envelope(t, body); code != "not_found" || msg == "" {
				t.Errorf("%s %s (auth %q): envelope = %q %q", r.method, r.path, auth, code, msg)
			}
			if resp.Header.Get("Deprecation") != "" {
				t.Errorf("%s %s: Deprecation header still sent", r.method, r.path)
			}
		}
		resp, body := send(panicking.URL, r.method, r.path, "")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("panicking %s %s: status = %d", r.method, r.path, resp.StatusCode)
		}
		if code, _ := envelope(t, body); code != "internal" {
			t.Errorf("panicking %s %s: code = %q", r.method, r.path, code)
		}
	}
	if resp, _ := send(srv.URL, http.MethodPut, "/v1/datasets", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/datasets: status = %d, want 405", resp.StatusCode)
	}
	for _, path := range []string{
		"/v1/datasets?offset=1",
		"/v1/lineage?entity=raw/orders.csv&offset=1",
		"/v1/audit?entity=raw/orders.csv&offset=1",
	} {
		resp, body := get(t, srv, path, "gov")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, resp.StatusCode)
		}
		if code, msg := envelope(t, body); code != "invalid_query" || !strings.Contains(msg, "next_cursor") {
			t.Errorf("%s: envelope = %q %q, want invalid_query naming next_cursor", path, code, msg)
		}
	}
}

func TestHTTPRelatedThroughV1(t *testing.T) {
	srv := apiLake(t)
	resp, body := get(t, srv, "/v1/related?table=orders&k=2", "dana")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("related status = %d: %s", resp.StatusCode, body)
	}
	var res []map[string]any
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r["Table"] == "payments" {
			found = true
		}
	}
	if !found {
		t.Errorf("payments not related: %s", body)
	}
	// A malformed or negative k is refused, not answered with the
	// default; an absent one takes it.
	for _, k := range []string{"abc", "-3", "2.5"} {
		resp, body := get(t, srv, "/v1/related?table=orders&k="+k, "dana")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("k=%s: status = %d, want 400", k, resp.StatusCode)
		}
		if code, _ := envelope(t, body); code != "invalid_query" {
			t.Errorf("k=%s: code = %q, want invalid_query", k, code)
		}
	}
	if resp, body := get(t, srv, "/v1/related?table=orders", "dana"); resp.StatusCode != http.StatusOK {
		t.Errorf("no k: status = %d: %s", resp.StatusCode, body)
	}
}

func TestRecoverMiddleware(t *testing.T) {
	l := testLake(t)
	// Wrap a panicking handler in the lake's middleware chain.
	h := l.recoverMW(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panic status = %d", resp.StatusCode)
	}
	if code, _ := envelope(t, body); code != "internal" {
		t.Errorf("panic code = %q", code)
	}
}

func TestNoStringMatchingLeftInStatusMapping(t *testing.T) {
	// Guard against regressions to substring-based error
	// classification: an error whose message *mentions* "unknown user"
	// but is typed not_found must map to 404, not 403.
	srv := apiLake(t)
	resp, _ := get(t, srv, "/v1/metadata?id=unknown%20user", "dana")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d: classification is reading message text", resp.StatusCode)
	}
}

// Exercise ingestion + explore over HTTP end to end: POST a dataset,
// maintain through the Go API, then discover it via POST /v1/explore.
func TestV1IngestThenExploreRoundTrip(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n2,20\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	resp, body := do(t, srv, http.MethodPost, "/v1/datasets", "dana",
		`{"path":"raw/payments.csv","source":"erp","content":"id,amount\n1,10\n2,20\n"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest status = %d: %s", resp.StatusCode, body)
	}
	if !l.Stale() {
		t.Error("lake should be stale after HTTP ingest")
	}
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, srv, http.MethodPost, "/v1/explore", "dana",
		`{"mode":"populate","table":"payments","k":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "orders") {
		t.Errorf("orders not discovered from HTTP-ingested payments: %s", body)
	}
}

func TestV1MaintenanceStatusEndpoint(t *testing.T) {
	srv := apiLake(t)
	resp, body := get(t, srv, "/v1/maintenance", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var st struct {
		Auto      bool   `json:"auto"`
		Running   bool   `json:"running"`
		Stale     bool   `json:"stale"`
		PassesRun uint64 `json:"passes_run"`
		LastPass  *struct {
			Mode     string `json:"mode"`
			Datasets int    `json:"datasets"`
		} `json:"last_pass"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Auto || st.Running || st.Stale || st.PassesRun != 1 {
		t.Errorf("status = %+v", st)
	}
	if st.LastPass == nil || st.LastPass.Mode != "full" || st.LastPass.Datasets != 2 {
		t.Errorf("last pass = %+v", st.LastPass)
	}
}

func TestV1MaintenanceTrigger(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n2,20\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.HTTPHandler())
	t.Cleanup(srv.Close)
	// Unregistered callers may not trigger passes.
	resp, _ := do(t, srv, http.MethodPost, "/v1/maintenance", "ghost", "")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unregistered trigger = %d", resp.StatusCode)
	}
	// First trigger runs the first-pass full rebuild.
	resp, body := do(t, srv, http.MethodPost, "/v1/maintenance", "dana", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trigger = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Mode     string `json:"mode"`
		Datasets int    `json:"datasets"`
		Stale    bool   `json:"stale"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != "full" || out.Datasets != 1 || out.Stale {
		t.Errorf("first trigger = %+v", out)
	}
	// Second trigger finds nothing new: an O(1) incremental pass.
	_, body = do(t, srv, http.MethodPost, "/v1/maintenance", "dana", "")
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != "incremental" || out.Datasets != 0 {
		t.Errorf("second trigger = %+v", out)
	}
}

func TestV1MaintenanceTriggerConflictsWhileRunning(t *testing.T) {
	l := testLake(t)
	srv := httptest.NewServer(l.HTTPHandler())
	t.Cleanup(srv.Close)
	// Hold the pass lock to simulate an in-flight pass.
	l.maintMu.Lock()
	resp, body := do(t, srv, http.MethodPost, "/v1/maintenance", "dana", "")
	l.maintMu.Unlock()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("trigger during pass = %d: %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "conflict" {
		t.Errorf("error code = %q, want conflict", env.Error.Code)
	}
}

// TestAutoMaintainHTTPIngestExplorable is the serve-mode acceptance
// path: a dataset ingested over REST becomes explorable over REST with
// no manual maintenance anywhere.
func TestAutoMaintainHTTPIngestExplorable(t *testing.T) {
	l, err := Open(t.TempDir(), WithAutoMaintain(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	l.AddUser("dana", RoleDataScientist)
	srv := httptest.NewServer(l.HTTPHandler())
	t.Cleanup(srv.Close)
	for path, csv := range map[string]string{
		"raw/orders.csv":   `id,total\n1,10\n2,20\n`,
		"raw/payments.csv": `id,amount\n1,5\n2,6\n`,
	} {
		body := `{"path":"` + path + `","content":"` + csv + `"}`
		resp, data := do(t, srv, http.MethodPost, "/v1/datasets", "dana", body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("ingest %s = %d: %s", path, resp.StatusCode, data)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, data := get(t, srv, "/v1/related?table=orders&k=2", "dana")
		if resp.StatusCode == http.StatusOK {
			var res []struct {
				Table string `json:"Table"`
			}
			if err := json.Unmarshal(data, &res); err != nil {
				t.Fatal(err)
			}
			found := false
			for _, r := range res {
				if r.Table == "payments" {
					found = true
				}
			}
			if found {
				break
			}
		} else if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("related = %d: %s", resp.StatusCode, data)
		}
		if time.Now().After(deadline) {
			t.Fatal("HTTP-ingested dataset never became explorable under auto-maintenance")
		}
		time.Sleep(time.Millisecond)
	}
	_, data := get(t, srv, "/v1/maintenance", "")
	var st struct {
		Auto      bool   `json:"auto"`
		PassesRun uint64 `json:"passes_run"`
		NextRun   string `json:"next_run"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Auto || st.PassesRun == 0 || st.NextRun == "" {
		t.Errorf("maintenance status = %+v", st)
	}
}
