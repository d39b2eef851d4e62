package core

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"golake/internal/query"
	"golake/lakeerr"
)

// TestLakeQueryOrderByDeterministicAcrossWidths is the Lake-level
// acceptance pin: ORDER BY output is byte-identical at fan-in 1, 2, 4
// and 8 over a heterogeneous federation (run under -race in CI).
func TestLakeQueryOrderByDeterministicAcrossWidths(t *testing.T) {
	l := fanInLake(t)
	ctx := context.Background()
	const sql = "SELECT city, price FROM rel:hotels_rel, doc:hotels_doc WHERE price > 20 ORDER BY price DESC, city LIMIT 40"
	render := func(st *query.RowStream) string {
		t.Helper()
		var sb strings.Builder
		for {
			row, err := st.Next(ctx)
			if err != nil {
				break
			}
			sb.WriteString(strings.Join(row, "|") + "\n")
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	var want string
	for _, w := range []int{1, 2, 4, 8} {
		st, err := l.Query(ctx, "dana", query.Request{SQL: sql, FanIn: w})
		if err != nil {
			t.Fatalf("fanin=%d: %v", w, err)
		}
		got := render(st)
		if !strings.Contains(got, "|") {
			t.Fatalf("fanin=%d produced no rows", w)
		}
		if w == 1 {
			want = got
		} else if got != want {
			t.Errorf("fanin=%d output differs from sequential", w)
		}
	}
}

// TestLakeQueryStatsAndProvenance: Stats reports per-source pulls, and
// the access lands in the audit trail exactly like the legacy path.
func TestLakeQueryStatsAndProvenance(t *testing.T) {
	l := fanInLake(t)
	l.AddUser("gov", RoleGovernance)
	ctx := context.Background()
	st, err := l.Query(ctx, "dana", query.Request{
		SQL: "SELECT city FROM rel:hotels_rel, doc:hotels_doc",
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := st.Next(ctx); err != nil {
			break
		}
		n++
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 600 {
		t.Fatalf("rows = %d, want 600", n)
	}
	es := st.Stats()
	if es.RowsOut != 600 || len(es.Sources) != 2 {
		t.Fatalf("stats = %+v", es)
	}
	for _, s := range es.Sources {
		if s.Rows != 300 {
			t.Errorf("source %s pulled %d rows, want 300", s.Source, s.Rows)
		}
	}
	log, err := l.Audit(ctx, "gov", "raw/hotels_rel.csv")
	if err != nil {
		t.Fatal(err)
	}
	sawQuery := false
	for _, ev := range log {
		if ev.Kind == "query" {
			sawQuery = true
		}
	}
	if !sawQuery {
		t.Errorf("query not recorded in provenance: %+v", log)
	}
}

// TestLakeQueryMaxResultsBoundsTopK: the WithMaxResults cap composes
// into the sort's top-K bound, visible in the plan.
func TestLakeQueryMaxResultsBoundsTopK(t *testing.T) {
	l, err := Open(t.TempDir(), WithMaxResults(5))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	ctx := context.Background()
	var csv strings.Builder
	csv.WriteString("id,v\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&csv, "r%d,%d\n", i, i)
	}
	if _, err := l.Ingest(ctx, "raw/nums.csv", []byte(csv.String()), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	st, err := l.Query(ctx, "dana", query.Request{SQL: "SELECT id, v FROM rel:nums ORDER BY v DESC"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Plan().Sort; got != "top-k heap (k=5)" {
		t.Errorf("plan sort = %q, want the max-results bound", got)
	}
	n := 0
	last := ""
	for {
		row, err := st.Next(ctx)
		if err != nil {
			break
		}
		last = row[1]
		n++
	}
	if n != 5 || last != "95" {
		t.Errorf("rows = %d (last v = %s), want the 5 largest", n, last)
	}
}

// TestLakeQueryExplainRecordsNoAccess: explain-only requests plan
// without touching data or the audit trail.
func TestLakeQueryExplainRecordsNoAccess(t *testing.T) {
	l := fanInLake(t)
	l.AddUser("gov", RoleGovernance)
	ctx := context.Background()
	st, err := l.Query(ctx, "dana", query.Request{SQL: "SELECT city FROM rel:hotels_rel", Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.ExplainOnly() || st.Plan() == nil {
		t.Fatal("explain request did not return a plan-only stream")
	}
	if _, err := st.Next(ctx); err == nil {
		t.Error("explain stream yielded rows")
	}
	log, err := l.Audit(ctx, "gov", "raw/hotels_rel.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range log {
		if ev.Kind == "query" {
			t.Errorf("explain recorded a query access: %+v", ev)
		}
	}
}

// TestLakeQueryTypedErrors: the unified entry point classifies
// failures exactly like the legacy methods.
func TestLakeQueryTypedErrors(t *testing.T) {
	l := fanInLake(t)
	ctx := context.Background()
	errOf := func(_ *query.RowStream, err error) error { return err }
	cases := []struct {
		name string
		err  error
		code lakeerr.Code
	}{
		{"unknown user", errOf(l.Query(ctx, "mallory", query.Request{SQL: "SELECT city FROM rel:hotels_rel"})), lakeerr.CodeUnauthorized},
		{"bad sql", errOf(l.Query(ctx, "dana", query.Request{SQL: "SELEKT x"})), lakeerr.CodeInvalidQuery},
		{"unknown source", errOf(l.Query(ctx, "dana", query.Request{SQL: "SELECT * FROM rel:ghost"})), lakeerr.CodeNotFound},
		{"explain unknown source", errOf(l.Query(ctx, "dana", query.Request{SQL: "EXPLAIN SELECT * FROM rel:ghost"})), lakeerr.CodeNotFound},
	}
	for _, tc := range cases {
		if lakeerr.CodeOf(tc.err) != tc.code {
			t.Errorf("%s: code = %v (%v), want %v", tc.name, lakeerr.CodeOf(tc.err), tc.err, tc.code)
		}
	}
}

// TestExplainRejectedOnRowShapedEndpoints: QuerySQL, which returns
// rows only, rejects EXPLAIN instead of returning a silent empty result.
func TestExplainRejectedOnRowShapedEndpoints(t *testing.T) {
	l := fanInLake(t)
	for _, sql := range []string{
		"EXPLAIN SELECT city FROM rel:hotels_rel",
		"EXPLAIN ANALYZE SELECT city FROM rel:hotels_rel",
	} {
		if _, err := l.QuerySQL(context.Background(), "dana", sql); lakeerr.CodeOf(err) != lakeerr.CodeInvalidQuery {
			t.Errorf("QuerySQL %q = %v, want invalid_query", sql, err)
		}
	}
}

// TestV1QueryOrderAndLimitBody: the order/limit knobs on POST
// /v1/query sort the JSON result.
func TestV1QueryOrderAndLimitBody(t *testing.T) {
	srv := fanInServer(t)
	resp, data := do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"SELECT city, price FROM rel:hotels_rel, doc:hotels_doc","order":[{"column":"price","desc":true},{"column":"city"}],"limit":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Columns []string        `json:"columns"`
		Rows    [][]string      `json:"rows"`
		Stats   query.ExecStats `json:"stats"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("rows = %v", out.Rows)
	}
	for i := 1; i < len(out.Rows); i++ {
		if out.Rows[i][1] > out.Rows[i-1][1] {
			t.Errorf("rows not descending by price: %v", out.Rows)
		}
	}
	if len(out.Stats.Sources) != 2 || out.Stats.Sources[0].Rows+out.Stats.Sources[1].Rows != 600 {
		t.Errorf("stats = %+v", out.Stats)
	}
	// Malformed order entries are invalid queries.
	resp, data = do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"SELECT city FROM rel:hotels_rel","order":[{"desc":true}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty order column: status = %d (%s)", resp.StatusCode, data)
	}
}

// TestV1QueryExplain: "explain": true (and an EXPLAIN statement)
// return the typed plan instead of rows.
func TestV1QueryExplain(t *testing.T) {
	srv := fanInServer(t)
	for _, body := range []string{
		`{"sql":"SELECT city FROM rel:hotels_rel, doc:hotels_doc ORDER BY city LIMIT 2","explain":true,"fanin":2}`,
		`{"sql":"EXPLAIN SELECT city FROM rel:hotels_rel, doc:hotels_doc ORDER BY city LIMIT 2","fanin":2}`,
	} {
		resp, data := do(t, srv, http.MethodPost, "/v1/query", "dana", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", body, resp.StatusCode, data)
		}
		var out struct {
			Plan *query.Plan `json:"plan"`
			Rows [][]string  `json:"rows"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Plan == nil || len(out.Rows) != 0 {
			t.Fatalf("explain response = %s", data)
		}
		if out.Plan.FanIn != 2 || out.Plan.Sort != "top-k heap (k=2)" || len(out.Plan.Sources) != 2 {
			t.Errorf("plan = %+v", out.Plan)
		}
		if out.Plan.Sources[0].Store != "rel" || out.Plan.Sources[1].Store != "doc" {
			t.Errorf("source stores = %+v", out.Plan.Sources)
		}
	}
}

// TestV1QueryDefaultFanInSequentialOverride: fanin 1 in the body
// forces the sequential plan even though the default fans in.
func TestV1QueryDefaultFanInSequentialOverride(t *testing.T) {
	srv := fanInServer(t)
	resp, data := do(t, srv, http.MethodPost, "/v1/query", "dana",
		`{"sql":"EXPLAIN SELECT city FROM rel:hotels_rel, doc:hotels_doc","fanin":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Plan *query.Plan `json:"plan"`
	}
	if err := json.Unmarshal(data, &out); err != nil || out.Plan == nil {
		t.Fatalf("body = %s (%v)", data, err)
	}
	if out.Plan.FanIn != 1 {
		t.Errorf("fanin=1 plan width = %d", out.Plan.FanIn)
	}
}
