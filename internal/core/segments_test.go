package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"golake/internal/persist"
	"golake/internal/storage/filestore"
	"golake/internal/table"
	"golake/lakeerr"
)

// segmentFiles lists the segment files of the local backend under dir.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, filestore.PersistDir, "segments"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// manifestSegments maps each dataset and derived table the installed
// manifest names to its segment.
func manifestSegments(t *testing.T, b persist.Backend) map[string]string {
	t.Helper()
	data, err := b.ReadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var m lakeSnapshot
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest %s: %v", data, err)
	}
	out := map[string]string{}
	for _, d := range m.Datasets {
		out[d.Path] = d.Segment
	}
	for _, d := range m.Derived {
		out[d.Name] = d.Segment
	}
	return out
}

// Every write to a closed persistent lake is refused as unavailable
// (HTTP 503) instead of acknowledged and lost: nothing it would have
// done is there after a reopen.
func TestWritesAfterCloseAreUnavailable(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	l, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	l.AddUser("carl", RoleCurator)
	if _, err := l.Ingest(ctx, "raw/kept.csv", []byte("id,v\n1,2\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	late, _ := table.ParseCSV("late_derived", "id\n1\n")
	writes := map[string]func() error{
		"Ingest": func() error {
			_, err := l.Ingest(ctx, "raw/late.csv", []byte("id,v\n1,2\n"), "erp", "dana")
			return err
		},
		"IngestBatch": func() error {
			_, err := l.IngestBatch(ctx, "dana", []IngestItem{{Path: "raw/batch.csv", Data: []byte("id\n1\n"), Source: "erp"}})
			return err
		},
		"Derive":   func() error { return l.Derive(ctx, "dana", "late", []string{"raw/kept.csv"}, late) },
		"Evict":    func() error { return l.Evict(ctx, "carl", "raw/kept.csv") },
		"AddToken": func() error { return l.AddToken("dana", "late-token") },
	}
	for name, write := range writes {
		if err := write(); !lakeerr.IsUnavailable(err) {
			t.Errorf("%s after Close = %v, want unavailable", name, err)
		}
	}
	resp, body := do(t, srv, http.MethodPost, "/v1/datasets", "dana",
		`{"path":"raw/http.csv","source":"erp","content":"id\n1\n"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST /v1/datasets after Close = %d %s, want 503", resp.StatusCode, body)
	}

	re, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Catalog.List(); len(got) != 1 || got[0] != "raw/kept.csv" {
		t.Errorf("reopened catalog = %v, want only raw/kept.csv", got)
	}
	if re.Poly.Rel.Has("late_derived") {
		t.Error("derived table written after Close came back")
	}
	if _, ok := re.userForToken("late-token"); ok {
		t.Error("token registered after Close came back")
	}
	if segs, _ := mem.ListSegments(); len(segs) != 1 {
		t.Errorf("segments = %+v, want only raw/kept.csv's", segs)
	}
}

// Writes racing Close are either logged or refused: every ingest that
// was acknowledged comes back after a reopen, and no refused one leaves
// a dataset or a segment behind.
func TestWritesRacingCloseAreLoggedOrRefused(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	l, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	const writers, each = 4, 25
	var (
		mu       sync.Mutex
		acked    []string
		wg       sync.WaitGroup
		once     sync.Once
		firstAck = make(chan struct{})
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				path := fmt.Sprintf("raw/w%d_%d.csv", w, i)
				_, err := l.Ingest(ctx, path, []byte("id,v\n1,2\n"), "erp", "dana")
				switch {
				case err == nil:
					mu.Lock()
					acked = append(acked, path)
					mu.Unlock()
					once.Do(func() { close(firstAck) })
				case !lakeerr.IsUnavailable(err):
					t.Errorf("%s: %v, want success or unavailable", path, err)
				}
			}
		}(w)
	}
	<-firstAck
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	sort.Strings(acked)
	want := strings.Join(acked, " ")

	got := l.Catalog.List()
	sort.Strings(got)
	if strings.Join(got, " ") != want {
		t.Errorf("closed lake's catalog has %d datasets, want the %d acknowledged: a refused ingest was applied", len(got), len(acked))
	}
	re, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got = re.Catalog.List()
	sort.Strings(got)
	if strings.Join(got, " ") != want {
		t.Errorf("reopened catalog has %d datasets, want the %d acknowledged:\n got %v\nwant %v", len(got), len(acked), got, acked)
	}
	if segs, _ := mem.ListSegments(); len(segs) != len(acked) {
		t.Errorf("%d segments after reopen, want one per acknowledged ingest (%d)", len(segs), len(acked))
	}
}

// A segment no record names — the image of a crash between its put and
// the WAL append — is deleted at open, and later names never reuse it.
func TestPersistOrphanSegmentSweptAtOpen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l := openPersistent(t, dir)
	l.AddUser("dana", RoleDataScientist)
	if _, err := l.Ingest(ctx, "raw/a.csv", []byte("x,y\n1,2\n"), "src", "dana"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := persist.NewLocal(filepath.Join(dir, filestore.PersistDir))
	if err != nil {
		t.Fatal(err)
	}
	const orphan = "00000000000000ff"
	if err := b.PutSegment(orphan, persist.EncodeFrame([]byte("x,y\n3,4\n"))); err != nil {
		t.Fatal(err)
	}
	_ = b.Close()

	re := openPersistent(t, dir)
	defer re.Close()
	kept := manifestSegments(t, re.pers.backend)["raw/a.csv"]
	if got := segmentFiles(t, dir); len(got) != 1 || got[0] != kept {
		t.Fatalf("segments after open = %v, want only %s", got, kept)
	}
	if _, err := re.Ingest(ctx, "raw/b.csv", []byte("x,z\n1,3\n"), "src", "dana"); err != nil {
		t.Fatal(err)
	}
	want := []string{kept, "0000000000000100"}
	sort.Strings(want)
	if got := segmentFiles(t, dir); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("segments = %v, want %v: the next name follows the highest ever stored", got, want)
	}
}

// An evicted dataset's segment outlives the eviction until a manifest
// that no longer names it is installed; then it is deleted.
func TestPersistEvictThenCheckpointDeletesSegment(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	l, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AddUser("dana", RoleDataScientist)
	l.AddUser("carl", RoleCurator)
	for _, p := range []string{"raw/a.csv", "raw/b.csv"} {
		if _, err := l.Ingest(ctx, p, []byte("x,y\n1,2\n"), "src", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.pers.checkpoint(l); err != nil {
		t.Fatal(err)
	}
	named := manifestSegments(t, mem)
	if err := l.Evict(ctx, "carl", "raw/a.csv"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ReadSegment(named["raw/a.csv"]); err != nil {
		t.Fatalf("segment deleted before a manifest stopped naming it: %v", err)
	}
	if err := l.pers.checkpoint(l); err != nil {
		t.Fatal(err)
	}
	segs, _ := mem.ListSegments()
	if len(segs) != 1 || segs[0].Name != named["raw/b.csv"] {
		t.Errorf("segments after checkpoint = %+v, want only raw/b.csv's %s", segs, named["raw/b.csv"])
	}
	if d := l.MaintenanceStatus().Durability; d.Segments != 1 || d.SegmentBytes != segs[0].Size {
		t.Errorf("status segments = %d (%d B), want 1 (%d B)", d.Segments, d.SegmentBytes, segs[0].Size)
	}
	if sz, _ := mem.SnapshotSize(); l.MaintenanceStatus().Durability.SnapshotBytes != sz {
		d := l.MaintenanceStatus().Durability
		t.Errorf("status snapshot_bytes = %d, backend SnapshotSize = %d", d.SnapshotBytes, sz)
	}
}

// Evict and re-ingest of one path before any checkpoint: replay reads
// the new bytes, and the old segment goes with the post-replay
// checkpoint.
func TestPersistEvictAndReingestBeforeCheckpoint(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	l, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	l.AddUser("carl", RoleCurator)
	if _, err := l.Ingest(ctx, "raw/a.csv", []byte("id,v\n1,old\n"), "src", "dana"); err != nil {
		t.Fatal(err)
	}
	if err := l.Evict(ctx, "carl", "raw/a.csv"); err != nil {
		t.Fatal(err)
	}
	fresh := []byte("id,v\n1,new\n2,newer\n")
	if _, err := l.Ingest(ctx, "raw/a.csv", fresh, "src", "dana"); err != nil {
		t.Fatal(err)
	}
	// Hard stop: only the WAL knows about the eviction.
	re, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.QuerySQL(ctx, "dana", "SELECT id, v FROM a ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if csv := table.ToCSV(got); csv != string(fresh) {
		t.Errorf("reopened a = %q, want the re-ingested %q", csv, fresh)
	}
	if segs, _ := mem.ListSegments(); len(segs) != 1 {
		t.Errorf("segments = %+v, want only the re-ingest's", segs)
	}
}

// A segment with a flipped bit is reported — a warning and a
// ReplayStats count — and its dataset is never served; the manifest
// keeps naming it, so its bytes stay on disk across opens.
func TestPersistDamagedSegmentNotServed(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l := openPersistent(t, dir)
	l.AddUser("dana", RoleDataScientist)
	if _, err := l.Ingest(ctx, "raw/a.csv", []byte("x,y\n1,2\n"), "src", "dana"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Ingest(ctx, "raw/b.csv", []byte("x,z\n1,3\n"), "src", "dana"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := persist.NewLocal(filepath.Join(dir, filestore.PersistDir))
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, filestore.PersistDir, "segments", manifestSegments(t, b)["raw/a.csv"])
	_ = b.Close()
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for open := 0; open < 2; open++ {
		var logs bytes.Buffer
		re := openPersistent(t, dir, WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
		if r := re.MaintenanceStatus().Durability.Replay; r == nil || r.DamagedSegments != 1 {
			t.Errorf("open %d: replay = %+v, want 1 damaged segment", open, r)
		}
		if !strings.Contains(logs.String(), "level=WARN") || !strings.Contains(logs.String(), "raw/a.csv") {
			t.Errorf("open %d: no warning names raw/a.csv:\n%s", open, logs.String())
		}
		if _, err := re.QuerySQL(ctx, "dana", "SELECT x FROM a"); err == nil {
			t.Errorf("open %d: the damaged dataset was served", open)
		}
		if _, err := re.QuerySQL(ctx, "dana", "SELECT x FROM b"); err != nil {
			t.Errorf("open %d: intact dataset: %v", open, err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(seg); err != nil {
			t.Errorf("open %d: damaged segment deleted: %v", open, err)
		}
	}
}

// A missing segment keeps its name reserved even though nothing on disk
// holds it: a later ingest gets a fresh name, so the damaged dataset
// never reads another dataset's bytes after the next reopen.
func TestPersistMissingSegmentNameNotReused(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l := openPersistent(t, dir)
	l.AddUser("dana", RoleDataScientist)
	if _, err := l.Ingest(ctx, "raw/a.csv", []byte("x,y\n1,2\n"), "src", "dana"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Ingest(ctx, "raw/b.csv", []byte("x,z\n1,3\n"), "src", "dana"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := persist.NewLocal(filepath.Join(dir, filestore.PersistDir))
	if err != nil {
		t.Fatal(err)
	}
	named := manifestSegments(t, b)
	_ = b.Close()
	missing := named["raw/b.csv"]
	if missing <= named["raw/a.csv"] {
		t.Fatalf("raw/b.csv's segment %s is not the highest name (%v)", missing, named)
	}
	if err := os.Remove(filepath.Join(dir, filestore.PersistDir, "segments", missing)); err != nil {
		t.Fatal(err)
	}

	re := openPersistent(t, dir)
	if _, err := re.Ingest(ctx, "raw/c.csv", []byte("w,v\n7,8\n"), "src", "dana"); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segmentFiles(t, dir) {
		if seg == missing {
			t.Fatalf("the missing segment's name %s was handed out again", missing)
		}
	}

	again := openPersistent(t, dir)
	defer again.Close()
	if r := again.MaintenanceStatus().Durability.Replay; r == nil || r.DamagedSegments != 1 {
		t.Errorf("replay = %+v, want 1 damaged segment", r)
	}
	if _, err := again.QuerySQL(ctx, "dana", "SELECT x FROM b"); err == nil {
		t.Error("the dataset whose segment is missing was served")
	}
	got, err := again.QuerySQL(ctx, "dana", "SELECT w, v FROM c")
	if err != nil {
		t.Fatal(err)
	}
	if csv := table.ToCSV(got); csv != "w,v\n7,8\n" {
		t.Errorf("c = %q, want its own bytes", csv)
	}
}

// A lake directory written before segments — table bytes inline in the
// snapshot and in WAL records — opens and answers byte-identically, and
// the checkpoint that open takes moves every inline byte into segments.
func TestPersistLegacyInlineFormatOpens(t *testing.T) {
	ctx := context.Background()
	orders := "id,total\n1,10\n2,30\n3,15\n"
	users := "id,name\n1,ann\n2,bo\n"
	big := "id,total\n2,30\n"
	ref := testLake(t)
	defer ref.Close()
	for path, csv := range map[string]string{"raw/orders.csv": orders, "raw/users.csv": users} {
		if _, err := ref.Ingest(ctx, path, []byte(csv), "erp", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	derived, _ := table.ParseCSV("big_orders", big)
	if err := ref.Derive(ctx, "dana", "filter_big", []string{"raw/orders.csv"}, derived); err != nil {
		t.Fatal(err)
	}
	statements := []string{
		"SELECT id, total FROM orders ORDER BY id",
		"SELECT id, name FROM users ORDER BY id",
		"SELECT id, total FROM big_orders ORDER BY id",
	}

	snapshot := func(datasets []map[string]any) []byte {
		data, err := json.Marshal(map[string]any{
			"version":  1,
			"users":    map[string]string{"dana": string(RoleDataScientist)},
			"datasets": datasets,
			"derived": []map[string]any{{"name": "big_orders", "activity": "filter_big", "user": "dana",
				"inputs": []string{"raw/orders.csv"}, "csv": big}},
			"maintained": false, "ingest_gen": 3, "maintained_gen": 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	inline := func(path, csv string) map[string]any {
		return map[string]any{"path": path, "source": "erp", "user": "dana", "data": []byte(csv)}
	}
	walRecord, err := json.Marshal(map[string]any{"kind": "ingest", "path": "raw/users.csv", "source": "erp", "user": "dana", "data": []byte(users)})
	if err != nil {
		t.Fatal(err)
	}
	for name, layout := range map[string]struct{ snap, wal []byte }{
		"snapshot and wal": {snapshot([]map[string]any{inline("raw/orders.csv", orders)}), persist.EncodeFrame(walRecord)},
		"snapshot only":    {snapshot([]map[string]any{inline("raw/orders.csv", orders), inline("raw/users.csv", users)}), nil},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			pdir := filepath.Join(dir, filestore.PersistDir)
			if err := os.MkdirAll(pdir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(pdir, "snapshot"), layout.snap, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(pdir, "wal.log"), layout.wal, 0o644); err != nil {
				t.Fatal(err)
			}
			for reopen := 0; reopen < 2; reopen++ {
				re := openPersistent(t, dir)
				for _, sql := range statements {
					want, err := ref.QuerySQL(ctx, "dana", sql)
					if err != nil {
						t.Fatal(err)
					}
					got, err := re.QuerySQL(ctx, "dana", sql)
					if err != nil {
						t.Fatalf("reopen %d: %s: %v", reopen, sql, err)
					}
					if table.ToCSV(got) != table.ToCSV(want) {
						t.Errorf("reopen %d: %s = %q, want %q", reopen, sql, table.ToCSV(got), table.ToCSV(want))
					}
				}
				if got, _ := re.Poly.Files.Get("raw/users.csv"); string(got) != users {
					t.Errorf("reopen %d: raw bytes = %q, want %q", reopen, got, users)
				}
				manifest, err := os.ReadFile(filepath.Join(pdir, "snapshot"))
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Contains(manifest, []byte(`"data"`)) || bytes.Contains(manifest, []byte(`"csv"`)) {
					t.Errorf("reopen %d: manifest still holds inline bytes: %s", reopen, manifest)
				}
				if segs := manifestSegments(t, re.pers.backend); len(segs) != 3 {
					t.Errorf("reopen %d: manifest names %v, want 3 segments", reopen, segs)
				}
				if sz, _ := re.pers.backend.WALSize(); sz != 0 {
					t.Errorf("reopen %d: wal = %d bytes after open, want 0", reopen, sz)
				}
				if got := segmentFiles(t, dir); len(got) != 3 {
					t.Errorf("reopen %d: segment files %v, want 3", reopen, got)
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
