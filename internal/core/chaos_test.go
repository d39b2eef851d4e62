package core

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"golake/internal/admission"
	"golake/internal/persist"
	"golake/internal/persist/faulty"
	"golake/internal/provenance"
	"golake/internal/query"
	"golake/internal/storage/filestore"
	"golake/internal/table"
	"golake/lakeerr"
)

// chaosLake opens a lake over a fault-injecting wrapper around a local
// persistence backend rooted in dir, seeded with one maintained
// dataset.
func chaosLake(t *testing.T, dir string, opts ...Option) (*Lake, *faulty.Backend) {
	t.Helper()
	inner, err := persist.NewLocal(filepath.Join(dir, filestore.PersistDir))
	if err != nil {
		t.Fatal(err)
	}
	f := faulty.New(inner)
	l, err := Open(dir, append([]Option{WithPersistence(f)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	ctx := context.Background()
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n2,20\n3,15\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	return l, f
}

// TestChaosWALFaultsUnderConcurrentIngestAndQuery: with every 3rd WAL
// append failing, concurrent ingest and query traffic completes without
// a single lost ack — the append retry machinery absorbs the transient
// faults, and an ingest whose record still cannot land is refused as
// unavailable with nothing published — and a hard-stopped reopen serves
// byte-identical results with every acked dataset present and every
// refused one absent.
func TestChaosWALFaultsUnderConcurrentIngestAndQuery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, f := chaosLake(t, dir)
	f.FailEveryNthAppend(3)

	const writers, perWriter, readers, queries = 4, 5, 4, 10
	var acked [writers][perWriter]bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				path := fmt.Sprintf("raw/chaos_%d_%d.csv", w, i)
				_, err := l.Ingest(ctx, path, []byte("id,v\n1,2\n2,3\n"), "erp", "dana")
				acked[w][i] = err == nil
				if err != nil && !lakeerr.IsUnavailable(err) {
					t.Errorf("ingest %s under WAL faults: %v", path, err)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				if _, err := l.QuerySQL(ctx, "dana", "SELECT id, total FROM orders ORDER BY id"); err != nil {
					t.Errorf("query under WAL faults: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if f.Injected() == 0 {
		t.Fatal("harness injected no faults; the test exercised nothing")
	}
	want, err := l.QuerySQL(ctx, "dana", "SELECT id, total FROM orders ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}

	// Hard stop (no Close, no final snapshot): reopen from WAL alone.
	re := openPersistent(t, dir)
	defer re.Close()
	got, err := re.QuerySQL(ctx, "dana", "SELECT id, total FROM orders ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if table.ToCSV(got) != table.ToCSV(want) {
		t.Errorf("reopened query differs:\n got %q\nwant %q", table.ToCSV(got), table.ToCSV(want))
	}
	// No partial acks: every ingest that returned success is present,
	// and every refused one is absent, live and after reopen.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			path := fmt.Sprintf("raw/chaos_%d_%d.csv", w, i)
			for name, lake := range map[string]*Lake{"live": l, "reopened": re} {
				_, err := lake.Metadata(ctx, path)
				if acked[w][i] && err != nil {
					t.Errorf("acked dataset %s missing %s: %v", path, name, err)
				}
				if !acked[w][i] && err == nil {
					t.Errorf("refused dataset %s present %s", path, name)
				}
			}
		}
	}
}

// TestChaosFailNextAppendsRefusesIngest: an ingest whose one WAL record
// fails every attempt is refused as unavailable and publishes nothing —
// absent from the catalog, the metadata, the placements and the audit
// trail, live and after a hard-stopped reopen, its segment deleted — and
// the path ingests fine once the backend heals.
func TestChaosFailNextAppendsRefusesIngest(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, f := chaosLake(t, dir)
	const path = "raw/refused.csv"
	f.FailNextAppends(walRetries + 1)
	if _, err := l.Ingest(ctx, path, []byte("id,v\n1,2\n"), "erp", "dana"); !lakeerr.IsUnavailable(err) {
		t.Fatalf("ingest with every append failing = %v, want unavailable", err)
	}
	if f.Injected() != walRetries+1 {
		t.Fatalf("injected %d faults, want %d", f.Injected(), walRetries+1)
	}
	absent := func(name string, lake *Lake) {
		t.Helper()
		if _, err := lake.Metadata(ctx, path); err == nil {
			t.Errorf("%s: refused dataset has metadata", name)
		}
		if _, ok := lake.Catalog.Entry(path); ok {
			t.Errorf("%s: refused dataset is catalogued", name)
		}
		if _, ok := lake.Poly.PlacementOf(path); ok {
			t.Errorf("%s: refused dataset is placed", name)
		}
		if log := lake.Tracker.AccessLog(path); len(log) != 0 {
			t.Errorf("%s: refused dataset's audit trail = %+v, want empty", name, log)
		}
	}
	absent("live", l)

	re := openPersistent(t, dir)
	defer re.Close()
	absent("reopened", re)
	if got := segmentFiles(t, dir); len(got) != 1 {
		t.Errorf("segment files = %v, want raw/orders.csv's only", got)
	}
	if _, err := re.Ingest(ctx, path, []byte("id,v\n1,2\n"), "erp", "dana"); err != nil {
		t.Fatalf("ingest after the refusal: %v", err)
	}
}

// TestChaosFailNextAppendsRefusesDerive: a derive whose WAL record
// fails every attempt is refused as unavailable and publishes nothing —
// its output is not queryable and GET /v1/audit shows no event for it,
// live and after a hard-stopped reopen, and its segment is deleted —
// and the same derive succeeds once the backend heals.
func TestChaosFailNextAppendsRefusesDerive(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, f := chaosLake(t, dir)
	const name = "big_orders"
	derived, err := table.ParseCSV(name, "id,total\n2,20\n")
	if err != nil {
		t.Fatal(err)
	}
	f.FailNextAppends(walRetries + 1)
	if err := l.Derive(ctx, "dana", "filter_big", []string{"raw/orders.csv"}, derived); !lakeerr.IsUnavailable(err) {
		t.Fatalf("derive with every append failing = %v, want unavailable", err)
	}
	if f.Injected() != walRetries+1 {
		t.Fatalf("injected %d faults, want %d", f.Injected(), walRetries+1)
	}
	absent := func(what string, lake *Lake) {
		t.Helper()
		if _, err := lake.QuerySQL(ctx, "dana", "SELECT id FROM "+name); err == nil {
			t.Errorf("%s: refused derive's output is queryable", what)
		}
		lake.AddUser("gov", RoleGovernance)
		srv := httptest.NewServer(lake.HTTPHandler())
		defer srv.Close()
		resp, body := get(t, srv, "/v1/audit?entity="+name, "gov")
		var pg pageOf
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &pg) != nil || pg.Total != 0 {
			t.Errorf("%s: audit of the refused derive's output = %d %s, want no events", what, resp.StatusCode, body)
		}
	}
	absent("live", l)
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatalf("pass after the refusal: %v", err)
	}

	re := openPersistent(t, dir)
	defer re.Close()
	re.AddUser("dana", RoleDataScientist)
	absent("reopened", re)
	if got := segmentFiles(t, dir); len(got) != 1 {
		t.Errorf("segment files = %v, want raw/orders.csv's only", got)
	}
	if err := re.Derive(ctx, "dana", "filter_big", []string{"raw/orders.csv"}, derived); err != nil {
		t.Fatalf("derive after the refusal: %v", err)
	}
	if got, err := re.QuerySQL(ctx, "dana", "SELECT id FROM "+name); err != nil || got.NumRows() != 1 {
		t.Errorf("retried derive's output: %v, %v; want one row", got, err)
	}
}

// TestChaosFailNextAppendsRefusesToken: a token registration whose WAL
// record fails every attempt is refused as unavailable and publishes
// nothing — a fresh token does not authenticate, a re-registered one
// keeps its old owner, live and after a hard-stopped reopen — and the
// registration succeeds once the backend heals.
func TestChaosFailNextAppendsRefusesToken(t *testing.T) {
	dir := t.TempDir()
	l, f := chaosLake(t, dir)
	l.AddUser("erin", RoleDataScientist)
	if err := l.AddToken("dana", "known"); err != nil {
		t.Fatal(err)
	}
	for _, reg := range []struct{ user, token string }{{"dana", "fresh"}, {"erin", "known"}} {
		f.FailNextAppends(walRetries + 1)
		if err := l.AddToken(reg.user, reg.token); !lakeerr.IsUnavailable(err) {
			t.Fatalf("AddToken(%s, %s) with every append failing = %v, want unavailable", reg.user, reg.token, err)
		}
	}
	if f.Injected() != 2*(walRetries+1) {
		t.Fatalf("injected %d faults, want %d", f.Injected(), 2*(walRetries+1))
	}
	refused := func(name string, lake *Lake) {
		t.Helper()
		if u, ok := lake.userForToken("fresh"); ok {
			t.Errorf("%s: refused token authenticates as %q", name, u)
		}
		if u, ok := lake.userForToken("known"); !ok || u != "dana" {
			t.Errorf("%s: re-registered token authenticates as %q (%v), want its old owner dana", name, u, ok)
		}
	}
	refused("live", l)

	re := openPersistent(t, dir)
	defer re.Close()
	refused("reopened", re)
	if err := re.AddToken("dana", "fresh"); err != nil {
		t.Fatalf("AddToken after the refusal: %v", err)
	}
	if u, ok := re.userForToken("fresh"); !ok || u != "dana" {
		t.Errorf("retried token authenticates as %q (%v), want dana", u, ok)
	}
}

// TestChaosFailNextAppendsRefusesEvict: an evict whose WAL record fails
// every attempt is refused as unavailable and removes nothing — the
// dataset stays catalogued, placed and queryable, with no discard event,
// live and after a hard-stopped reopen — and the evict succeeds once the
// backend heals.
func TestChaosFailNextAppendsRefusesEvict(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, f := chaosLake(t, dir)
	l.AddUser("carl", RoleCurator)
	const path = "raw/orders.csv"
	f.FailNextAppends(walRetries + 1)
	if err := l.Evict(ctx, "carl", path); !lakeerr.IsUnavailable(err) {
		t.Fatalf("evict with every append failing = %v, want unavailable", err)
	}
	if f.Injected() != walRetries+1 {
		t.Fatalf("injected %d faults, want %d", f.Injected(), walRetries+1)
	}
	present := func(name string, lake *Lake) {
		t.Helper()
		if _, ok := lake.Catalog.Entry(path); !ok {
			t.Errorf("%s: refused evict removed the catalog entry", name)
		}
		if _, ok := lake.Poly.PlacementOf(path); !ok {
			t.Errorf("%s: refused evict removed the placement", name)
		}
		if got, err := lake.QuerySQL(ctx, "dana", "SELECT id FROM orders"); err != nil || got.NumRows() != 3 {
			t.Errorf("%s: query after the refused evict = %v, %v; want three rows", name, got, err)
		}
		for _, ev := range lake.Tracker.AccessLog(path) {
			if ev.Kind == provenance.EventDiscard {
				t.Errorf("%s: refused evict left a discard event %+v", name, ev)
			}
		}
	}
	present("live", l)

	re := openPersistent(t, dir)
	defer re.Close()
	re.AddUser("dana", RoleDataScientist)
	re.AddUser("carl", RoleCurator)
	present("reopened", re)
	if err := re.Evict(ctx, "carl", path); err != nil {
		t.Fatalf("evict after the refusal: %v", err)
	}
	if _, ok := re.Poly.PlacementOf(path); ok {
		t.Error("dataset still placed after the healed evict")
	}
}

// TestChaosTornWriteTailDroppedOnReopen: a crash mid-append leaves
// half a frame at the WAL tail; reopen drops the torn tail instead of
// failing, and everything before it is intact.
func TestChaosTornWriteTailDroppedOnReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, f := chaosLake(t, dir)
	_ = l // hard-stopped below; the torn tail goes in behind its back

	// Simulate the crash image directly through the harness: half of
	// one framed record, then nothing.
	f.TornWriteNextAppend()
	frame := persist.EncodeFrame([]byte(`{"kind":"ingest","path":"raw/lost.csv"}`))
	if err := f.AppendWAL(frame); err == nil {
		t.Fatal("torn append should report failure")
	}

	re := openPersistent(t, dir)
	defer re.Close()
	if _, err := re.Metadata(ctx, "raw/orders.csv"); err != nil {
		t.Errorf("pre-crash dataset lost: %v", err)
	}
	got, err := re.QuerySQL(ctx, "dana", "SELECT id, total FROM orders ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Errorf("reopened rows = %d, want 3", got.NumRows())
	}
}

// TestChaosCheckpointFailureDegradesAndHeals: failing checkpoints
// never fail the mutating operation — the WAL keeps growing — and once
// the backend heals, the next threshold crossing checkpoints fine and
// the lake reopens from the snapshot.
func TestChaosCheckpointFailureDegradesAndHeals(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// Threshold 1 byte: every append crosses it and tries a checkpoint.
	l, f := chaosLake(t, dir, WithSnapshotEvery(1))
	f.FailCheckpoints(true)
	for i := 0; i < 3; i++ {
		path := fmt.Sprintf("raw/deg_%d.csv", i)
		if _, err := l.Ingest(ctx, path, []byte("id,v\n1,2\n"), "erp", "dana"); err != nil {
			t.Fatalf("ingest with failing checkpoints: %v", err)
		}
	}
	if f.Injected() == 0 {
		t.Fatal("no checkpoint faults fired")
	}
	f.Heal()
	// The recovered backend re-admits traffic: the next ingest
	// checkpoints successfully.
	if _, err := l.Ingest(ctx, "raw/healed.csv", []byte("id,v\n1,2\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.SnapshotSize(); sz == 0 {
		t.Error("no snapshot after heal; checkpoint did not recover")
	}
	re := openPersistent(t, dir)
	defer re.Close()
	for _, path := range []string{"raw/orders.csv", "raw/deg_0.csv", "raw/deg_2.csv", "raw/healed.csv"} {
		if _, err := re.Metadata(ctx, path); err != nil {
			t.Errorf("dataset %s missing after reopen: %v", path, err)
		}
	}
}

// TestChaosShedQueriesNeverCorruptState: load shedding under a
// one-slot quota combined with WAL faults leaves persisted state
// fully consistent — shed queries touch nothing, acked ingests all
// survive reopen.
func TestChaosShedQueriesNeverCorruptState(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, f := chaosLake(t, dir, WithAdmission(admission.Config{MaxConcurrentPerUser: 1}))
	f.FailEveryNthAppend(2)

	// Hold the user's only slot so every further query sheds.
	st, err := l.Query(ctx, "dana", query.Request{SQL: "SELECT id FROM rel:orders"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := l.Query(ctx, "dana", query.Request{SQL: "SELECT id FROM rel:orders"})
			if !lakeerr.IsResourceExhausted(err) {
				t.Errorf("held-slot query = %v, want resource_exhausted", err)
			}
		}()
	}
	var acked [4]bool
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("raw/shed_%d.csv", i)
			_, err := l.Ingest(ctx, path, []byte("id,v\n1,2\n"), "erp", "dana")
			acked[i] = err == nil
			if err != nil && !lakeerr.IsUnavailable(err) {
				t.Errorf("ingest during shedding: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re := openPersistent(t, dir)
	defer re.Close()
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("raw/shed_%d.csv", i)
		if _, err := re.Metadata(ctx, path); acked[i] != (err == nil) {
			t.Errorf("dataset %s acked %v, present after reopen %v", path, acked[i], err == nil)
		}
	}
	got, err := re.QuerySQL(ctx, "dana", "SELECT id, total FROM orders ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Errorf("reopened rows = %d, want 3", got.NumRows())
	}
}

// TestChaosSegmentPutFailureIsUnavailable: an ingest whose segment put
// fails — outright or torn — is a typed 503 that changes neither the
// catalog nor the WAL; once the backend heals the same path ingests
// fine, and a hard-stopped reopen keeps exactly one segment per
// dataset.
func TestChaosSegmentPutFailureIsUnavailable(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, f := chaosLake(t, dir)
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	const path = "raw/landing.csv"
	walBefore, _ := f.WALSize()
	appendsBefore := f.Appends()

	f.FailNextSegmentPuts(1)
	if _, err := l.Ingest(ctx, path, []byte("id,v\n1,2\n"), "erp", "dana"); !lakeerr.IsUnavailable(err) {
		t.Errorf("ingest with a failing segment put = %v, want unavailable", err)
	}
	f.FailNextSegmentPuts(1)
	resp, body := do(t, srv, http.MethodPost, "/v1/datasets", "dana",
		`{"path":"raw/landing.csv","source":"erp","content":"id,v\n1,2\n"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST with a failing segment put = %d %s, want 503", resp.StatusCode, body)
	}
	f.TornSegmentPut()
	if _, err := l.Ingest(ctx, path, []byte("id,v\n1,2\n"), "erp", "dana"); !lakeerr.IsUnavailable(err) {
		t.Errorf("ingest with a torn segment put = %v, want unavailable", err)
	}
	if f.Injected() != 3 {
		t.Fatalf("injected %d faults, want 3", f.Injected())
	}
	if walAfter, _ := f.WALSize(); walAfter != walBefore || f.Appends() != appendsBefore {
		t.Errorf("wal %d -> %d bytes, %d -> %d appends; want unchanged", walBefore, walAfter, appendsBefore, f.Appends())
	}
	if _, ok := l.Catalog.Entry(path); ok {
		t.Error("a failed ingest reached the catalog")
	}

	f.Heal()
	if _, err := l.Ingest(ctx, path, []byte("id,v\n1,2\n"), "erp", "dana"); err != nil {
		t.Fatalf("ingest after heal: %v", err)
	}
	re := openPersistent(t, dir)
	defer re.Close()
	if _, err := re.Metadata(ctx, path); err != nil {
		t.Errorf("acked dataset missing after reopen: %v", err)
	}
	if got := segmentFiles(t, dir); len(got) != 2 {
		t.Errorf("segment files = %v, want raw/orders.csv's and %s's", got, path)
	}
}

// TestChaosRetryBackoffOutsideLock: a writer whose WAL append failed
// sleeps its backoff without holding the persister's lock, so a query
// (whose own audit append meets the second programmed failure and
// retries too) and a status probe both complete while the writer is
// still inside its backoff; the writer's record then lands after the
// query's.
func TestChaosRetryBackoffOutsideLock(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, f := chaosLake(t, dir)
	held, unblock := holdFirstBackoff(t, l)
	f.FailNextAppends(2)
	ingested := make(chan error, 1)
	go func() {
		_, err := l.Ingest(ctx, "raw/late.csv", []byte("id,total\n9,90\n"), "erp", "dana")
		ingested <- err
	}()
	<-held
	done := make(chan error, 1)
	go func() {
		_, err := l.QuerySQL(ctx, "dana", "SELECT id FROM orders")
		if err == nil && l.MaintenanceStatus().Durability == nil {
			err = fmt.Errorf("no durability status")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a query and a status probe waited on a writer's retry backoff")
	}
	select {
	case err := <-ingested:
		t.Fatalf("the writer returned (%v) while held in its backoff", err)
	default:
	}
	unblock()
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}
	if f.Injected() != 2 {
		t.Errorf("injected %d faults, want 2", f.Injected())
	}
	wal, err := f.ReadWAL()
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	frames, _ := persist.DecodeFrames(wal)
	for _, payload := range frames {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		switch {
		case rec.Kind == recIngest && rec.Path == "raw/late.csv":
			kinds = append(kinds, "ingest")
		case rec.Kind == recAudit && rec.Event.Kind == provenance.EventQuery:
			kinds = append(kinds, "query")
		}
	}
	if fmt.Sprint(kinds) != "[query ingest]" {
		t.Errorf("wal holds %v, want the query's audit record before the held writer's ingest record", kinds)
	}
}
