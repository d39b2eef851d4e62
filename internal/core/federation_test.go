package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"golake/internal/persist"
	"golake/internal/query"
	"golake/internal/remote"
	"golake/internal/table"
	"golake/lakeerr"
)

// memberLake opens a lake holding one relational table named tableName
// and serves its REST API from an httptest server; user "dana" is
// registered.
func memberLake(t *testing.T, tableName string, rows, mod int, opts ...Option) (*Lake, *httptest.Server) {
	t.Helper()
	l, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	l.AddUser("dana", RoleDataScientist)
	var csv strings.Builder
	csv.WriteString("city,price\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&csv, "%s%d,%d\n", tableName, i, i%mod)
	}
	if _, err := l.Ingest(context.Background(), "raw/"+tableName+".csv", []byte(csv.String()), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.HTTPHandler())
	t.Cleanup(srv.Close)
	return l, srv
}

// federatedLake opens a lake with east/west member stores over the two
// servers plus any extra options.
func federatedLake(t *testing.T, east, west string, opts ...Option) *Lake {
	t.Helper()
	opts = append([]Option{
		WithRemoteStore("east", east, remote.Options{Timeout: 10 * time.Second}),
		WithRemoteStore("west", west, remote.Options{Timeout: 10 * time.Second}),
	}, opts...)
	l, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	l.AddUser("dana", RoleDataScientist)
	return l
}

func collectRows(t *testing.T, st *query.RowStream) []string {
	t.Helper()
	var out []string
	for {
		row, err := st.Next(context.Background())
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, strings.Join(row, "|"))
	}
	_ = st.Close()
	return out
}

// TestFederationByteIdentity is the tentpole acceptance check: a
// scatter-gather over two remote member lakes returns byte-identical
// results to the same query over local copies, at several fan-in
// widths, ordered and unordered.
func TestFederationByteIdentity(t *testing.T) {
	_, eastSrv := memberLake(t, "hotels_a", 300, 97)
	_, westSrv := memberLake(t, "hotels_b", 250, 89)
	fed := federatedLake(t, eastSrv.URL, westSrv.URL)

	// The local reference lake holds both datasets itself.
	local, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = local.Close() })
	local.AddUser("dana", RoleDataScientist)
	for _, spec := range []struct {
		name      string
		rows, mod int
	}{{"hotels_a", 300, 97}, {"hotels_b", 250, 89}} {
		var csv strings.Builder
		csv.WriteString("city,price\n")
		for i := 0; i < spec.rows; i++ {
			fmt.Fprintf(&csv, "%s%d,%d\n", spec.name, i, i%spec.mod)
		}
		if _, err := local.Ingest(context.Background(), "raw/"+spec.name+".csv", []byte(csv.String()), "erp", "dana"); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	const where = " WHERE price > 40"
	// Ordered: the output must match byte for byte at any width.
	ordered := query.Request{
		SQL:   "SELECT city, price FROM rel:hotels_a, rel:hotels_b" + where + " ORDER BY price DESC, city",
		Limit: 200,
	}
	lst, err := local.Query(ctx, "dana", ordered)
	if err != nil {
		t.Fatal(err)
	}
	wantOrdered := collectRows(t, lst)
	if len(wantOrdered) == 0 {
		t.Fatal("fixture returned no rows")
	}
	// Unordered: the row set must match.
	lst2, err := local.Query(ctx, "dana", query.Request{SQL: "SELECT city, price FROM rel:hotels_a, rel:hotels_b" + where})
	if err != nil {
		t.Fatal(err)
	}
	wantSet := collectRows(t, lst2)
	sort.Strings(wantSet)

	for _, fanin := range []int{1, 4, 8} {
		req := ordered
		req.SQL = "SELECT city, price FROM east:hotels_a, west:hotels_b" + where + " ORDER BY price DESC, city"
		req.FanIn = fanin
		st, err := fed.Query(ctx, "dana", req)
		if err != nil {
			t.Fatalf("fanin=%d: %v", fanin, err)
		}
		if got := collectRows(t, st); strings.Join(got, "\n") != strings.Join(wantOrdered, "\n") {
			t.Errorf("fanin=%d: ordered federated result diverged from local (%d vs %d rows)", fanin, len(got), len(wantOrdered))
		}
		st2, err := fed.Query(ctx, "dana", query.Request{
			SQL: "SELECT city, price FROM east:hotels_a, west:hotels_b" + where, FanIn: fanin,
		})
		if err != nil {
			t.Fatalf("fanin=%d unordered: %v", fanin, err)
		}
		got := collectRows(t, st2)
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(wantSet, "\n") {
			t.Errorf("fanin=%d: federated row set diverged from local (%d vs %d rows)", fanin, len(got), len(wantSet))
		}
	}

	t.Run("hostile cells", func(t *testing.T) {
		for _, framed := range []bool{true, false} {
			hostileByteIdentity(t, framed)
		}
	})
}

// hostileLake opens a lake whose tables hold hostileCells, and two
// cells longer than the remote client's read buffer, in their city
// column, stored straight in the relational store so the cells keep
// their exact bytes, and serves it through wrap.
func hostileLake(t *testing.T, tableNames []string, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	l.AddUser("dana", RoleDataScientist)
	cells := append([]string{strings.Repeat("long plain cell ", 2500), strings.Repeat("<long escaped cell>", 2000)}, hostileCells...)
	for _, name := range tableNames {
		k := int(name[len(name)-1]) // each table its own rotation, wherever it is held
		tbl := table.New(name)
		tbl.Columns = []*table.Column{{Name: "city"}, {Name: "price"}}
		for i := 0; i < 600; i++ {
			_ = tbl.AppendRow([]string{cells[(i+k)%len(cells)], fmt.Sprint(i % 53)})
		}
		l.Poly.Rel.Create(tbl)
	}
	srv := httptest.NewServer(wrap(l.HTTPHandler()))
	t.Cleanup(srv.Close)
	return srv
}

// postRowLines runs sql over HTTP with the NDJSON accept header and
// returns the response's row lines, header and trailer dropped.
func postRowLines(t *testing.T, base, sql string, fanin int) []string {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"sql": sql, "fanin": fanin})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/query", bytes.NewReader(body))
	req.Header.Set("X-Lake-User", "dana")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d, err %v: %.200s", sql, resp.StatusCode, err, raw)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[len(lines)-2], `{"stats":`) {
		t.Fatalf("%s: response does not end in a stats trailer: %.200q", sql, raw)
	}
	return lines[1 : len(lines)-2]
}

// hostileByteIdentity: the bytes a coordinator writes for hostile
// cells that crossed the hop equal the bytes a lake holding the same
// tables writes, at fan-in 1, 4 and 8, ordered and unordered, with
// members answering batch frames. With members answering NDJSON, as
// one that predates the frame does, so do the bytes of every valid
// UTF-8 cell.
func hostileByteIdentity(t *testing.T, framed bool) {
	t.Helper()
	wrap := func(h http.Handler) http.Handler { return h }
	if !framed {
		wrap = func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				r.Header.Set("Accept", "application/x-ndjson")
				h.ServeHTTP(w, r)
			})
		}
	}
	eastSrv := hostileLake(t, []string{"hostile_a"}, wrap)
	westSrv := hostileLake(t, []string{"hostile_b"}, wrap)
	fed := httptest.NewServer(federatedLake(t, eastSrv.URL, westSrv.URL).HTTPHandler())
	t.Cleanup(fed.Close)
	local := hostileLake(t, []string{"hostile_a", "hostile_b"}, wrap)

	const where = " WHERE price > 3"
	for _, fanin := range []int{1, 4, 8} {
		for _, order := range []string{"", " ORDER BY price DESC, city"} {
			want := postRowLines(t, local.URL, "SELECT city, price FROM rel:hostile_a, rel:hostile_b"+where+order, fanin)
			got := postRowLines(t, fed.URL, "SELECT city, price FROM east:hostile_a, west:hostile_b"+where+order, fanin)
			if !framed {
				// NDJSON cannot carry invalid UTF-8: the member writes
				// each bad byte as \ufffd, the coordinator reads back
				// U+FFFD, writes that character as it stands and sorts
				// by it, not by the bad byte. Only the row set holds.
				for i, line := range want {
					want[i] = strings.ReplaceAll(line, `\ufffd`, "\ufffd")
				}
			}
			if order == "" && fanin > 1 || !framed {
				sort.Strings(want)
				sort.Strings(got)
			}
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("framed=%v fanin=%d%s: %d federated rows, %d local", framed, fanin, order, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("framed=%v fanin=%d%s: row %d\n%.300q, want\n%.300q", framed, fanin, order, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFederationExplain pins the plan surface: remote sources show a
// remote access path naming the member and its URL, with the pushed-
// down predicates and projection listed.
func TestFederationExplain(t *testing.T) {
	_, eastSrv := memberLake(t, "hotels_a", 50, 7)
	_, westSrv := memberLake(t, "hotels_b", 50, 7)
	fed := federatedLake(t, eastSrv.URL, westSrv.URL)
	st, err := fed.Query(context.Background(), "dana", query.Request{
		SQL:     "SELECT city FROM east:hotels_a, west:hotels_b WHERE price > 40",
		Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	plan := st.Plan()
	if len(plan.Sources) != 2 {
		t.Fatalf("sources = %+v", plan.Sources)
	}
	for i, member := range []string{"east", "west"} {
		sp := plan.Sources[i]
		if sp.Store != "remote" {
			t.Errorf("source %d store = %q, want remote", i, sp.Store)
		}
		if !strings.Contains(sp.Access, "remote lake "+member) {
			t.Errorf("source %d access = %q, want remote lake %s", i, sp.Access, member)
		}
		if len(sp.Pushdown) != 1 || !strings.Contains(sp.Pushdown[0], "price") {
			t.Errorf("source %d pushdown = %v", i, sp.Pushdown)
		}
		// The member filters, so no predicate column crosses the hop:
		// the projection pushed is the query's own.
		if !reflect.DeepEqual(sp.Project, []string{"city"}) {
			t.Errorf("source %d project = %q, want the query's projection [city]", i, sp.Project)
		}
	}
	// EXPLAIN plans without executing: no remote request was made that
	// could have audited anything locally.
	if log := fed.Tracker.AccessLog("hotels_a"); len(log) != 0 {
		t.Errorf("explain audited: %v", log)
	}
}

// TestFederationPushdownExecutes checks the member actually receives
// the narrowed statement: with pushdown on, the member's audit log sees
// the forwarded originating user, and results match pushdown off.
func TestFederationPushdownAndAudit(t *testing.T) {
	eastLake, eastSrv := memberLake(t, "hotels_a", 80, 13)
	_, westSrv := memberLake(t, "hotels_b", 80, 13)
	fed := federatedLake(t, eastSrv.URL, westSrv.URL)
	st, err := fed.Query(context.Background(), "dana", query.Request{
		SQL: "SELECT city FROM east:hotels_a WHERE price > 5 ORDER BY city LIMIT 10",
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := collectRows(t, st)
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	// The member audited the originating user (identity forwarded via
	// X-Lake-User), against its own ingest path.
	log := eastLake.Tracker.AccessLog("raw/hotels_a.csv")
	var sawQuery bool
	for _, ev := range log {
		if ev.Kind == "query" && ev.User == "dana" {
			sawQuery = true
		}
	}
	if !sawQuery {
		t.Errorf("member audit log = %+v, want a query by dana", log)
	}
	// The federating lake records no local provenance for the remote
	// dataset — the member owns it.
	if log := fed.Tracker.AccessLog("hotels_a"); len(log) != 0 {
		t.Errorf("federating lake audited a remote dataset: %v", log)
	}
}

// TestFederationRemoteErrors pins typed error propagation: the member's
// classification survives the hop.
func TestFederationRemoteErrors(t *testing.T) {
	_, eastSrv := memberLake(t, "hotels_a", 10, 3)
	_, westSrv := memberLake(t, "hotels_b", 10, 3)
	fed := federatedLake(t, eastSrv.URL, westSrv.URL)
	ctx := context.Background()

	// Unknown dataset on the member: not_found end to end.
	_, err := fed.QuerySQL(ctx, "dana", "SELECT city FROM east:no_such_table")
	if lakeerr.CodeOf(err) != lakeerr.CodeNotFound {
		t.Errorf("unknown remote dataset: %v (code %s), want not_found", err, lakeerr.CodeOf(err))
	}

	// Unknown member locally: a prefix naming no store or member is an
	// invalid query, refused before any network hop.
	_, err = fed.QuerySQL(ctx, "dana", "SELECT city FROM nowhere:hotels_a")
	if lakeerr.CodeOf(err) != lakeerr.CodeInvalidQuery {
		t.Errorf("unknown member: %v (code %s), want invalid_query", err, lakeerr.CodeOf(err))
	}

	// A user the member does not know: the forwarded identity is
	// rejected by the member — the federated hop is not an auth bypass.
	fed.AddUser("eve", RoleDataScientist)
	_, err = fed.QuerySQL(ctx, "eve", "SELECT city FROM east:hotels_a")
	if lakeerr.CodeOf(err) != lakeerr.CodeUnauthorized {
		t.Errorf("unregistered-on-member user: %v (code %s), want unauthorized", err, lakeerr.CodeOf(err))
	}

	// A dead member: typed unavailable after retries, not a hang or a
	// silent empty result.
	deadSrv := httptest.NewServer(nil)
	deadURL := deadSrv.URL
	deadSrv.Close()
	fed2, err := Open(t.TempDir(),
		WithRemoteStore("gone", deadURL, remote.Options{ConnectRetries: 1, RetryBackoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fed2.Close() })
	fed2.AddUser("dana", RoleDataScientist)
	_, err = fed2.QuerySQL(ctx, "dana", "SELECT city FROM gone:hotels_a")
	if lakeerr.CodeOf(err) != lakeerr.CodeUnavailable {
		t.Errorf("dead member: %v (code %s), want unavailable", err, lakeerr.CodeOf(err))
	}
}

// TestFederationRouting pins the consistent-hash Locate hook: with
// routing on, a bare dataset name that lives on no local store resolves
// to a member lake.
func TestFederationRouting(t *testing.T) {
	_, eastSrv := memberLake(t, "hotels_a", 40, 7)
	fed, err := Open(t.TempDir(),
		WithRemoteStore("east", eastSrv.URL, remote.Options{}),
		WithRemoteRouting(true))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fed.Close() })
	fed.AddUser("dana", RoleDataScientist)
	got, err := fed.QuerySQL(context.Background(), "dana", "SELECT city FROM hotels_a ORDER BY city LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 5 {
		t.Errorf("routed query rows = %d, want 5", got.NumRows())
	}
}

// TestBearerTokenAuth drives the HTTP middleware directly: a registered
// token authenticates as its user (outranking X-Lake-User), an unknown
// or malformed credential is a typed 403, and tokenless requests keep
// the X-Lake-User convention.
func TestBearerTokenAuth(t *testing.T) {
	l, srv := memberLake(t, "hotels_a", 10, 3)
	l.AddUser("gov", RoleGovernance)
	if err := l.AddToken("gov", "gov-token-1"); err != nil {
		t.Fatal(err)
	}
	if err := l.AddToken("ghost", "x"); lakeerr.CodeOf(err) != lakeerr.CodeUnauthorized {
		t.Errorf("AddToken for unknown user: %v", err)
	}

	get := func(path string, hdr map[string]string) (*http.Response, map[string]any) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp, body
	}

	// The audit endpoint needs the governance role: X-Lake-User alone
	// claiming "gov" works (the header convention), and so does the
	// bearer token with a contradictory X-Lake-User — the token wins.
	resp, _ := get("/v1/audit?entity=raw/hotels_a.csv", map[string]string{"X-Lake-User": "gov"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("X-Lake-User gov: status %d", resp.StatusCode)
	}
	resp, _ = get("/v1/audit?entity=raw/hotels_a.csv", map[string]string{
		"Authorization": "Bearer gov-token-1", "X-Lake-User": "dana",
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("bearer token should outrank X-Lake-User: status %d", resp.StatusCode)
	}

	// Unknown and malformed credentials: typed unauthorized, not a
	// fallthrough to the spoofable header.
	for _, auth := range []string{"Bearer wrong", "Basic Zm9vOmJhcg==", "Bearer "} {
		resp, body := get("/v1/audit?entity=raw/hotels_a.csv", map[string]string{
			"Authorization": auth, "X-Lake-User": "gov",
		})
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("auth %q: status %d, want 403", auth, resp.StatusCode)
			continue
		}
		envel, _ := body["error"].(map[string]any)
		if envel["code"] != string(lakeerr.CodeUnauthorized) {
			t.Errorf("auth %q: error envelope = %v", auth, body)
		}
	}
}

// TestFederationBearerToken pins the credential-forwarding satellite: a
// member that does not know the federating lake's users accepts the hop
// only when the remote store is configured with a valid bearer token.
func TestFederationBearerToken(t *testing.T) {
	member, memberSrv := memberLake(t, "hotels_a", 30, 7)
	member.AddUser("svc", RoleDataScientist)
	if err := member.AddToken("svc", "fed-secret"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Without a token, the forwarded user "ruth" is unknown to the
	// member: unauthorized.
	noToken, err := Open(t.TempDir(), WithRemoteStore("east", memberSrv.URL, remote.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = noToken.Close() })
	noToken.AddUser("ruth", RoleDataScientist)
	_, err = noToken.QuerySQL(ctx, "ruth", "SELECT city FROM east:hotels_a")
	if lakeerr.CodeOf(err) != lakeerr.CodeUnauthorized {
		t.Fatalf("tokenless hop: %v (code %s), want unauthorized", err, lakeerr.CodeOf(err))
	}

	// With the token, the hop authenticates as "svc" regardless of the
	// forwarded X-Lake-User.
	withToken, err := Open(t.TempDir(),
		WithRemoteStore("east", memberSrv.URL, remote.Options{Token: "fed-secret"}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = withToken.Close() })
	withToken.AddUser("ruth", RoleDataScientist)
	got, err := withToken.QuerySQL(ctx, "ruth", "SELECT city FROM east:hotels_a ORDER BY city LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Errorf("tokened hop rows = %d, want 3", got.NumRows())
	}

	// A wrong token fails typed, even though the member would accept
	// the X-Lake-User fallback without any Authorization header.
	badToken, err := Open(t.TempDir(),
		WithRemoteStore("east", memberSrv.URL, remote.Options{Token: "stale"}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = badToken.Close() })
	badToken.AddUser("dana", RoleDataScientist)
	_, err = badToken.QuerySQL(ctx, "dana", "SELECT city FROM east:hotels_a")
	if lakeerr.CodeOf(err) != lakeerr.CodeUnauthorized {
		t.Errorf("wrong token: %v (code %s), want unauthorized", err, lakeerr.CodeOf(err))
	}
}

// TestTokenPersistence pins WAL + snapshot coverage of the token
// registry: a reopened lake still resolves its bearer tokens.
func TestTokenPersistence(t *testing.T) {
	mem := persist.NewMemory()
	dir := t.TempDir()
	l, err := Open(dir, WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("svc", RoleDataScientist)
	if err := l.AddToken("svc", "durable-token"); err != nil {
		t.Fatal(err)
	}
	// WAL-only replay (no Close): the record path.
	l2, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := l2.userForToken("durable-token"); !ok || u != "svc" {
		t.Errorf("after WAL replay: user = %q, %v", u, ok)
	}
	// Snapshot replay: Close checkpoints, reopen restores from snapshot.
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if u, ok := l3.userForToken("durable-token"); !ok || u != "svc" {
		t.Errorf("after snapshot replay: user = %q, %v", u, ok)
	}
	if _, ok := l3.userForToken("never-registered"); ok {
		t.Error("unknown token resolved after replay")
	}
}

// TestFederationCancelNoGoroutineLeak pins leak-free teardown: early
// Close and context cancellation mid-stream release every remote
// stream.
func TestFederationCancelNoGoroutineLeak(t *testing.T) {
	_, eastSrv := memberLake(t, "hotels_a", 2000, 97)
	_, westSrv := memberLake(t, "hotels_b", 2000, 89)
	before := runtime.NumGoroutine()
	fed := federatedLake(t, eastSrv.URL, westSrv.URL)
	for i := 0; i < 5; i++ {
		// Early Close after a few rows.
		st, err := fed.Query(context.Background(), "dana", query.Request{
			SQL: "SELECT city, price FROM east:hotels_a, west:hotels_b", FanIn: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
		_ = st.Close()
		// Context cancellation mid-stream.
		ctx, cancel := context.WithCancel(context.Background())
		st2, err := fed.Query(ctx, "dana", query.Request{
			SQL: "SELECT city FROM east:hotels_a", FanIn: 4,
		})
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		_, _ = st2.Next(ctx)
		cancel()
		_ = st2.Close()
	}
	// Close drops the remote clients' pooled keep-alive connections;
	// everything else must already have unwound on its own.
	if err := fed.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// logSink is a goroutine-safe log destination: server goroutines write,
// the test reads once the servers have shut down.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// lines returns the logged records with the given msg.
func (s *logSink) lines(t *testing.T, msg string) []map[string]any {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(s.buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("log line %q: %v", ln, err)
		}
		if rec["msg"] == msg {
			out = append(out, rec)
		}
	}
	return out
}

// TestFederationRequestIDCrossesTheHop: one federated query leaves the
// same request_id on the coordinator's access-log line and on every
// member's access-log and audit lines, so an operator joins the hops
// on it.
func TestFederationRequestIDCrossesTheHop(t *testing.T) {
	var eastLog, westLog, fedLog logSink
	logTo := func(s *logSink) Option { return WithLogger(slog.New(slog.NewJSONHandler(s, nil))) }
	_, eastSrv := memberLake(t, "hotels_a", 30, 7, logTo(&eastLog))
	_, westSrv := memberLake(t, "hotels_b", 20, 5, logTo(&westLog))
	fed := federatedLake(t, eastSrv.URL, westSrv.URL, logTo(&fedLog))
	fedSrv := httptest.NewServer(fed.HTTPHandler())

	req, err := http.NewRequest(http.MethodPost, fedSrv.URL+"/v1/query",
		strings.NewReader(`{"sql":"SELECT city, price FROM east:hotels_a, west:hotels_b"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Lake-User", "dana")
	req.Header.Set("Accept", "application/x-ndjson")
	req.Header.Set("X-Request-ID", "fed-trace-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || strings.Count(string(body), "\n") != 52 { // header + 50 rows + stats
		t.Fatalf("federated answer: %v\n%s", err, body)
	}
	// Close returns once every handler has, access-log line included.
	fedSrv.Close()
	eastSrv.Close()
	westSrv.Close()

	// The coordinator audits nothing for a remote source (the member
	// owns the dataset and records the access), so its line to join on
	// is the access log's.
	want := map[string][]string{"coordinator": {"request"}, "east": {"request", "audit"}, "west": {"request", "audit"}}
	for name, sink := range map[string]*logSink{"coordinator": &fedLog, "east": &eastLog, "west": &westLog} {
		for _, msg := range want[name] {
			var ids []any
			for _, rec := range sink.lines(t, msg) {
				if rec["route"] == "/v1/query" || rec["action"] == "query" {
					ids = append(ids, rec["request_id"])
				}
			}
			if len(ids) != 1 || ids[0] != "fed-trace-7" {
				t.Errorf("%s: request_id on the query's %q lines = %v, want one fed-trace-7", name, msg, ids)
			}
		}
	}
}
