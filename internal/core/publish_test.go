package core

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"golake/internal/provenance"
	"golake/internal/table"
	"golake/lakeerr"
)

// holdFirstBackoff makes the first retry backoff of l's appends wait
// until release is called, so the writer whose append failed first
// stays in flight, holding whatever it reserved, for as long as the
// test needs. Later backoffs sleep as usual.
func holdFirstBackoff(t *testing.T, l *Lake) (held <-chan struct{}, release func()) {
	h, r := make(chan struct{}), make(chan struct{})
	var once, releaseOnce sync.Once
	l.pers.sleep = func(d time.Duration) {
		first := false
		once.Do(func() { first = true })
		if !first {
			time.Sleep(d)
			return
		}
		close(h)
		<-r
	}
	release = func() { releaseOnce.Do(func() { close(r) }) }
	t.Cleanup(release)
	return h, release
}

// refusedWrite is one write kind, made to be refused, and what its
// refusal must leave behind.
type refusedWrite struct {
	name  string
	write func(*Lake) error
	// absent checks that nothing of the write, its events included, is in
	// the lake.
	absent func(t *testing.T, what string, l *Lake)
}

// refusedWrites are the four write kinds against a chaosLake with carl
// registered as a curator.
func refusedWrites() []refusedWrite {
	ctx := context.Background()
	return []refusedWrite{
		{
			name: "ingest",
			write: func(l *Lake) error {
				_, err := l.Ingest(ctx, "raw/refused.csv", []byte("id,v\n1,2\n"), "erp", "dana")
				return err
			},
			absent: func(t *testing.T, what string, l *Lake) {
				t.Helper()
				if _, ok := l.Catalog.Entry("raw/refused.csv"); ok {
					t.Errorf("%s: the refused ingest is catalogued", what)
				}
				if _, ok := l.Poly.PlacementOf("raw/refused.csv"); ok {
					t.Errorf("%s: the refused ingest is placed", what)
				}
				if log := l.Tracker.AccessLog("raw/refused.csv"); len(log) != 0 {
					t.Errorf("%s: the refused ingest's events = %+v, want none", what, log)
				}
			},
		},
		{
			name: "derive",
			write: func(l *Lake) error {
				out, err := table.ParseCSV("big_orders", "id,total\n2,20\n")
				if err != nil {
					return err
				}
				return l.Derive(ctx, "dana", "filter_big", []string{"raw/orders.csv"}, out)
			},
			absent: func(t *testing.T, what string, l *Lake) {
				t.Helper()
				if l.Poly.Rel.Has("big_orders") {
					t.Errorf("%s: the refused derive's output is stored", what)
				}
				if log := l.Tracker.AccessLog("big_orders"); len(log) != 0 {
					t.Errorf("%s: the refused derive's events = %+v, want none", what, log)
				}
				for _, ev := range l.Tracker.AccessLog("raw/orders.csv") {
					if ev.Kind == provenance.EventRead {
						t.Errorf("%s: the refused derive's read event %+v", what, ev)
					}
				}
			},
		},
		{
			name:  "evict",
			write: func(l *Lake) error { return l.Evict(ctx, "carl", "raw/orders.csv") },
			absent: func(t *testing.T, what string, l *Lake) {
				t.Helper()
				if _, ok := l.Poly.PlacementOf("raw/orders.csv"); !ok {
					t.Errorf("%s: the refused evict removed the dataset", what)
				}
				for _, ev := range l.Tracker.AccessLog("raw/orders.csv") {
					if ev.Kind == provenance.EventDiscard {
						t.Errorf("%s: the refused evict's discard event %+v", what, ev)
					}
				}
			},
		},
		{
			name:  "token",
			write: func(l *Lake) error { return l.AddToken("dana", "fresh") },
			absent: func(t *testing.T, what string, l *Lake) {
				t.Helper()
				if u, ok := l.userForToken("fresh"); ok {
					t.Errorf("%s: the refused token authenticates as %q", what, u)
				}
			},
		},
	}
}

// TestChaosRefusedWriteIsInNoCheckpoint: a checkpoint taken while a
// write waits out its append's retry backoff holds nothing of that
// write, so once the retries fail, a hard-stopped reopen has neither the
// write nor its events. Nothing is published before its record lands.
func TestChaosRefusedWriteIsInNoCheckpoint(t *testing.T) {
	for _, w := range refusedWrites() {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			l, f := chaosLake(t, dir)
			l.AddUser("carl", RoleCurator)
			held, release := holdFirstBackoff(t, l)
			f.FailNextAppends(walRetries + 1)
			done := make(chan error, 1)
			go func() { done <- w.write(l) }()
			<-held
			// What a concurrent append's checkpoint would install.
			if err := l.pers.checkpoint(l); err != nil {
				t.Fatal(err)
			}
			release()
			if err := <-done; !lakeerr.IsUnavailable(err) {
				t.Fatalf("%s with every append failing = %v, want unavailable", w.name, err)
			}
			w.absent(t, "live", l)

			re := openPersistent(t, dir) // l is never closed: a hard stop
			defer re.Close()
			w.absent(t, "reopened", re)
			if got := segmentFiles(t, dir); len(got) != 1 {
				t.Errorf("segment files = %v, want raw/orders.csv's only", got)
			}
		})
	}
}

// eventSeqs lists each event as "seq kind entity".
func eventSeqs(evs []provenance.Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = fmt.Sprintf("%d %s %s%v", ev.Seq, ev.Kind, ev.Entity, ev.Entities)
	}
	return out
}

// TestChaosRefusedWritesLeaveSeqsDense: refused writes, and a query
// whose audit record is dropped, use no sequence number, so the event
// log is numbered 1, 2, 3, ... live and after a hard-stopped reopen.
func TestChaosRefusedWritesLeaveSeqsDense(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, f := chaosLake(t, dir)
	l.AddUser("carl", RoleCurator)
	for _, w := range refusedWrites() {
		f.FailNextAppends(walRetries + 1)
		if err := w.write(l); !lakeerr.IsUnavailable(err) {
			t.Fatalf("%s with every append failing = %v, want unavailable", w.name, err)
		}
	}
	f.FailNextAppends(walRetries + 1)
	if _, err := l.QuerySQL(ctx, "dana", "SELECT id FROM orders"); err != nil {
		t.Fatalf("a query whose audit record is dropped still runs: %v", err)
	}
	if _, err := l.Ingest(ctx, "raw/after.csv", []byte("id\n1\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.QuerySQL(ctx, "dana", "SELECT id FROM after"); err != nil {
		t.Fatal(err)
	}
	dense := func(what string, evs []provenance.Event) {
		t.Helper()
		for i, ev := range evs {
			if ev.Seq != i+1 {
				t.Fatalf("%s: event %d has seq %d, want %d: %v", what, i, ev.Seq, i+1, eventSeqs(evs))
			}
		}
	}
	live := l.Tracker.Events()
	dense("live", live)
	if len(live) != 3 {
		t.Errorf("live events = %v, want the two ingests and the audited query", eventSeqs(live))
	}
	re := openPersistent(t, dir)
	defer re.Close()
	reopened := re.Tracker.Events()
	dense("reopened", reopened)
	if got, want := fmt.Sprint(eventSeqs(reopened)), fmt.Sprint(eventSeqs(live)); got != want {
		t.Errorf("reopened events = %s, want the live ones %s", got, want)
	}
}

// TestChaosRefusedDeriveLeavesNoLineage: a derive whose record is
// dropped adds no lineage edge, so its output has no lineage at all,
// live; the same derive, once the backend heals, has its input's.
func TestChaosRefusedDeriveLeavesNoLineage(t *testing.T) {
	ctx := context.Background()
	l, f := chaosLake(t, t.TempDir())
	out, err := table.ParseCSV("big", "id,total\n2,20\n")
	if err != nil {
		t.Fatal(err)
	}
	f.FailNextAppends(walRetries + 1)
	if err := l.Derive(ctx, "dana", "filter_big", []string{"raw/orders.csv"}, out); !lakeerr.IsUnavailable(err) {
		t.Fatalf("derive with every append failing = %v, want unavailable", err)
	}
	if up, err := l.Lineage(ctx, "big"); !lakeerr.IsNotFound(err) {
		t.Errorf("Lineage of the refused derive's output = %v, %v; want not_found", up, err)
	}
	if err := l.Derive(ctx, "dana", "filter_big", []string{"raw/orders.csv"}, out); err != nil {
		t.Fatal(err)
	}
	if up, err := l.Lineage(ctx, "big"); err != nil || fmt.Sprint(up) != "[raw/orders.csv]" {
		t.Errorf("Lineage of the healed derive's output = %v, %v; want [raw/orders.csv]", up, err)
	}
}

// TestChaosRacingWritesOfOneName: two writes of one dataset path or one
// model-store name — two ingests of a path, two ingests whose basenames
// collide, a derive and an ingest onto one name — never both land. A
// write that meets the reservation of one in flight is a conflict at
// once, without waiting for it; started together, exactly one wins and
// the other is a conflict, and only the winner's segment stays.
func TestChaosRacingWritesOfOneName(t *testing.T) {
	ctx := context.Background()
	ingest := func(path string) func(*Lake) error {
		return func(l *Lake) error {
			_, err := l.Ingest(ctx, path, []byte("id,v\n1,2\n"), "erp", "dana")
			return err
		}
	}
	derive := func(name string) func(*Lake) error {
		return func(l *Lake) error {
			out, err := table.ParseCSV(name, "id\n1\n")
			if err != nil {
				return err
			}
			return l.Derive(ctx, "dana", "copy", []string{"raw/orders.csv"}, out)
		}
	}
	cases := []struct {
		name string
		a, b func(*Lake) error
	}{
		{"one path", ingest("raw/x.csv"), ingest("raw/x.csv")},
		{"colliding basenames", ingest("raw/a/x.csv"), ingest("raw/b/x.csv")},
		{"derive then ingest", derive("x"), ingest("raw/x.csv")},
		{"ingest then derive", ingest("raw/x.csv"), derive("x")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, f := chaosLake(t, dir)
			held, release := holdFirstBackoff(t, l)
			f.FailNextAppends(1)
			first := make(chan error, 1)
			go func() { first <- tc.a(l) }()
			<-held
			second := make(chan error, 1)
			go func() { second <- tc.b(l) }()
			select {
			case err := <-second:
				if !lakeerr.IsConflict(err) {
					t.Errorf("a write meeting an in-flight write's reservation = %v, want conflict", err)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("a write meeting an in-flight write's reservation waited for it")
				release()
				<-second
			}
			release()
			if err := <-first; err != nil {
				t.Errorf("the in-flight write = %v, want it to land", err)
			}
			if got := segmentFiles(t, dir); len(got) != 2 {
				t.Errorf("segment files = %v, want raw/orders.csv's and the winner's", got)
			}

			dir = t.TempDir()
			l, _ = chaosLake(t, dir)
			start := make(chan struct{})
			errs := make(chan error, 2)
			for _, w := range []func(*Lake) error{tc.a, tc.b} {
				go func() {
					<-start
					errs <- w(l)
				}()
			}
			close(start)
			won, conflicts := 0, 0
			for range 2 {
				switch err := <-errs; {
				case err == nil:
					won++
				case lakeerr.IsConflict(err):
					conflicts++
				default:
					t.Errorf("racing write = %v, want success or conflict", err)
				}
			}
			if won != 1 || conflicts != 1 {
				t.Errorf("started together: %d won and %d conflicted, want one each", won, conflicts)
			}
			if got := segmentFiles(t, dir); len(got) != 2 {
				t.Errorf("segment files = %v, want raw/orders.csv's and the winner's", got)
			}
		})
	}
}

// TestChaosReadyzFollowsWALHealth: GET /v1/healthz answers 200 in every
// state; GET /v1/readyz answers 200 on an open lake, 503 with the error
// envelope from a dropped record until the next append lands, and 503
// once the lake is closed. golake_wal_degraded reads 1 exactly while a
// dropped record is the last word. A lake without persistence is ready.
func TestChaosReadyzFollowsWALHealth(t *testing.T) {
	ctx := context.Background()
	l, f := chaosLake(t, t.TempDir())
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	state := func(what string, ready bool, degraded int) {
		t.Helper()
		if resp, body := get(t, srv, "/v1/healthz", ""); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: healthz = %d %s, want 200", what, resp.StatusCode, body)
		}
		resp, body := get(t, srv, "/v1/readyz", "")
		if ready {
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: readyz = %d %s, want 200", what, resp.StatusCode, body)
			}
		} else {
			var env struct {
				Error struct{ Code string } `json:"error"`
			}
			if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(body, &env) != nil || env.Error.Code != string(lakeerr.CodeUnavailable) {
				t.Errorf("%s: readyz = %d %s, want 503 with an unavailable envelope", what, resp.StatusCode, body)
			}
		}
		_, metrics := get(t, srv, "/v1/metrics", "")
		if want := fmt.Sprintf("\ngolake_wal_degraded %d\n", degraded); !strings.Contains(string(metrics), want) {
			t.Errorf("%s: metrics do not read %q", what, strings.TrimSpace(want))
		}
	}
	state("open", true, 0)
	f.FailNextAppends(walRetries + 1)
	if _, err := l.Ingest(ctx, "raw/refused.csv", []byte("id\n1\n"), "erp", "dana"); !lakeerr.IsUnavailable(err) {
		t.Fatalf("ingest with every append failing = %v, want unavailable", err)
	}
	state("a record dropped", false, 1)
	if _, err := l.Ingest(ctx, "raw/healed.csv", []byte("id\n1\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	state("the next append landed", true, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	state("closed", false, 0)

	mem := httptest.NewServer(testLake(t).HTTPHandler())
	defer mem.Close()
	if resp, body := get(t, mem, "/v1/readyz", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz without persistence = %d %s, want 200", resp.StatusCode, body)
	}
}
