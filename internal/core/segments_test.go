package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
		checkOneEntryPerName(t, re)
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

// Ingesting a dataset again, or deriving a table again, whose segment
// is damaged replaces the entry replay kept for it: the manifest names
// it once, the old segment goes at the next checkpoint, and whether the
// lake that wrote again was closed or abandoned, the reopens after it
// warn of nothing, count no damaged segment and serve the new rows (an
// abandoned lake's first reopen still meets the damaged entry in its
// manifest before the WAL record that replaces it).
func TestPersistReingestReplacesDamagedEntry(t *testing.T) {
	ctx := context.Background()
	for _, stop := range []string{"close", "hard stop"} {
		t.Run(stop, func(t *testing.T) {
			mem := persist.NewMemory()
			var logs bytes.Buffer
			open := func() *Lake {
				t.Helper()
				logs.Reset()
				l, err := Open(t.TempDir(), WithPersistence(mem), WithLogger(quietTimeLogger(&logs)))
				if err != nil {
					t.Fatal(err)
				}
				return l
			}
			write := func(l *Lake, body string) {
				t.Helper()
				if _, err := l.Ingest(ctx, "raw/a.csv", []byte(body), "src", "dana"); err != nil {
					t.Fatal(err)
				}
				d, _ := table.ParseCSV("d", body)
				if err := l.Derive(ctx, "dana", "copy", []string{"raw/a.csv"}, d); err != nil {
					t.Fatal(err)
				}
			}
			l := open()
			l.AddUser("dana", RoleDataScientist)
			write(l, "x\n1\n")
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			old := manifestSegments(t, mem)
			for _, key := range []string{"raw/a.csv", "d"} {
				frame, err := mem.ReadSegment(old[key])
				if err != nil {
					t.Fatal(err)
				}
				frame[len(frame)-1] ^= 0x01
				if err := mem.PutSegment(old[key], frame); err != nil {
					t.Fatal(err)
				}
			}
			l = open()
			if r := l.MaintenanceStatus().Durability.Replay; r == nil || r.DamagedSegments != 2 {
				t.Fatalf("replay = %+v, want 2 damaged segments", r)
			}
			write(l, "x\n2\n")
			if stop == "close" {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			for reopen := 0; reopen < 2; reopen++ {
				re := open()
				checkOneEntryPerName(t, re)
				if stop == "close" || reopen > 0 {
					if r := re.MaintenanceStatus().Durability.Replay; r == nil || r.DamagedSegments != 0 {
						t.Errorf("reopen %d: replay = %+v, want no damaged segment", reopen, r)
					}
					if strings.Contains(logs.String(), "level=WARN") {
						t.Errorf("reopen %d: warnings:\n%s", reopen, logs.String())
					}
				}
				for _, sql := range []string{"SELECT x FROM a", "SELECT x FROM d"} {
					got, err := re.QuerySQL(ctx, "dana", sql)
					if err != nil {
						t.Fatalf("reopen %d: %s: %v", reopen, sql, err)
					}
					if csv := table.ToCSV(got); csv != "x\n2\n" {
						t.Errorf("reopen %d: %s = %q, want the new rows", reopen, sql, csv)
					}
				}
				data, err := mem.ReadSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				var m lakeSnapshot
				if err := json.Unmarshal(data, &m); err != nil {
					t.Fatal(err)
				}
				if len(m.Datasets) != 1 || len(m.Derived) != 1 {
					t.Errorf("reopen %d: manifest datasets %+v, derived %+v; want one of each", reopen, m.Datasets, m.Derived)
				}
				for key, seg := range old {
					if _, err := mem.ReadSegment(seg); !errors.Is(err, persist.ErrNoSegment) {
						t.Errorf("reopen %d: the damaged segment of %s is still stored (%v)", reopen, key, err)
					}
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// checkOneEntryPerName fails if l's installed manifest holds two entries
// with one ingest path, one derive name or one claimed name. A derive
// claims its name. A dataset l places claims its table or collection
// name, and a file-only one claims none; a dataset l does not place
// (its segment is damaged) claims what its record says: none when it
// was file-only, else its basename.
func checkOneEntryPerName(t *testing.T, l *Lake) {
	t.Helper()
	data, err := l.pers.backend.ReadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var m lakeSnapshot
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest %s: %v", data, err)
	}
	seen := map[string]bool{}
	once := func(what, key string) {
		if seen[what+" "+key] {
			t.Errorf("manifest holds %s %q in two entries:\ndatasets %+v\nderived %+v", what, key, m.Datasets, m.Derived)
		}
		seen[what+" "+key] = true
	}
	for _, d := range m.Datasets {
		once("path", d.Path)
		claim := d.claim()
		if pl, ok := l.Poly.PlacementOf(d.Path); ok {
			claim = pl.TableName + pl.Collection
		}
		if claim != "" {
			once("name", claim)
		}
	}
	for _, d := range m.Derived {
		once("derive", d.Name)
		once("name", d.Name)
	}
}

// Every served name has one entry, whichever kind of write claims it
// and whichever kind of entry it replaces: a WAL record that duplicates
// a damaged manifest entry (a crash between the manifest install and
// the WAL truncate) leaves one entry and one damaged segment, and an
// ingest or derive over a damaged entry that claims its name, of either
// kind, replaces it, so the reopens after it warn of nothing. Two
// file-only objects that share a basename claim no name and both stay,
// live or with one of them damaged.
func TestPersistOneEntryPerServedName(t *testing.T) {
	ctx := context.Background()
	open := func(t *testing.T, mem *persist.Memory, logs *bytes.Buffer) *Lake {
		t.Helper()
		logs.Reset()
		l, err := Open(t.TempDir(), WithPersistence(mem), WithLogger(quietTimeLogger(logs)))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	ingest := func(t *testing.T, l *Lake, path, body string) {
		t.Helper()
		if _, err := l.Ingest(ctx, path, []byte(body), "src", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	derive := func(t *testing.T, l *Lake, name, body string) {
		t.Helper()
		d, _ := table.ParseCSV(name, body)
		if err := l.Derive(ctx, "dana", "copy", nil, d); err != nil {
			t.Fatal(err)
		}
	}
	closeLake := func(t *testing.T, l *Lake) {
		t.Helper()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// damage flips a bit in the segment the manifest names for key.
	damage := func(t *testing.T, mem *persist.Memory, key string) {
		t.Helper()
		seg := manifestSegments(t, mem)[key]
		frame, err := mem.ReadSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		frame[len(frame)-1] ^= 0x01
		if err := mem.PutSegment(seg, frame); err != nil {
			t.Fatal(err)
		}
	}
	// overDamage writes first on a lake, closes it, damages the segment
	// of key, then writes then on the lake that opens over the damage.
	overDamage := func(key string, first, then func(*testing.T, *Lake)) func(*testing.T, *persist.Memory) {
		return func(t *testing.T, mem *persist.Memory) {
			var logs bytes.Buffer
			l := open(t, mem, &logs)
			l.AddUser("dana", RoleDataScientist)
			first(t, l)
			closeLake(t, l)
			damage(t, mem, key)
			l = open(t, mem, &logs)
			then(t, l)
			closeLake(t, l)
		}
	}
	rows := []struct {
		name  string
		write func(*testing.T, *persist.Memory)
		// damaged is the damaged_segments every reopen reports, entries
		// the number of manifest entries; served maps a statement to the
		// rows it answers, and placed lists paths the lake must place.
		damaged int
		entries int
		served  map[string]string
		placed  []string
	}{
		{
			name: "wal duplicate of a damaged manifest entry",
			write: func(t *testing.T, mem *persist.Memory) {
				var logs bytes.Buffer
				l := open(t, mem, &logs)
				l.AddUser("dana", RoleDataScientist)
				ingest(t, l, "raw/a.csv", "x\n1\n")
				wal, err := mem.ReadWAL()
				if err != nil {
					t.Fatal(err)
				}
				frames, _ := persist.DecodeFrames(wal)
				closeLake(t, l)
				if err := mem.DeleteSegment(manifestSegments(t, mem)["raw/a.csv"]); err != nil {
					t.Fatal(err)
				}
				// The crash left the ingest's record in the WAL beside the
				// manifest that holds it.
				if err := mem.AppendWAL(persist.EncodeFrame(frames[len(frames)-1])); err != nil {
					t.Fatal(err)
				}
			},
			damaged: 1,
			entries: 1,
		},
		{
			name: "ingest over a damaged derive",
			write: overDamage("d",
				func(t *testing.T, l *Lake) { ingest(t, l, "raw/a.csv", "x\n1\n"); derive(t, l, "d", "x\n1\n") },
				func(t *testing.T, l *Lake) { ingest(t, l, "raw/d.csv", "x\n2\n") }),
			entries: 2,
			served:  map[string]string{"SELECT x FROM d": "x\n2\n", "SELECT x FROM a": "x\n1\n"},
		},
		{
			name: "derive over a damaged ingest",
			write: overDamage("raw/a/x.csv",
				func(t *testing.T, l *Lake) { ingest(t, l, "raw/a/x.csv", "x\n1\n") },
				func(t *testing.T, l *Lake) { derive(t, l, "x", "x\n2\n") }),
			entries: 1,
			served:  map[string]string{"SELECT x FROM x": "x\n2\n"},
		},
		{
			name: "ingest of the same basename over a damaged ingest",
			write: overDamage("raw/a/x.csv",
				func(t *testing.T, l *Lake) { ingest(t, l, "raw/a/x.csv", "x\n1\n") },
				func(t *testing.T, l *Lake) { ingest(t, l, "raw/b/x.csv", "x\n2\n") }),
			entries: 1,
			served:  map[string]string{"SELECT x FROM x": "x\n2\n"},
			placed:  []string{"raw/b/x.csv"},
		},
		{
			name: "file-only ingest of the same basename over a damaged file-only ingest",
			write: overDamage("raw/a/x.bin",
				func(t *testing.T, l *Lake) { ingest(t, l, "raw/a/x.bin", "\x00\x01a") },
				func(t *testing.T, l *Lake) { ingest(t, l, "raw/b/x.bin", "\x00\x01b") }),
			damaged: 1,
			entries: 2,
			placed:  []string{"raw/b/x.bin"},
		},
		{
			name: "two live file-only objects of one basename",
			write: func(t *testing.T, mem *persist.Memory) {
				var logs bytes.Buffer
				l := open(t, mem, &logs)
				l.AddUser("dana", RoleDataScientist)
				ingest(t, l, "raw/a/x.bin", "\x00\x01a")
				ingest(t, l, "raw/b/x.bin", "\x00\x01b")
				closeLake(t, l)
			},
			entries: 2,
			placed:  []string{"raw/a/x.bin", "raw/b/x.bin"},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			mem := persist.NewMemory()
			row.write(t, mem)
			for reopen := 0; reopen < 3; reopen++ {
				var logs bytes.Buffer
				l := open(t, mem, &logs)
				if r := l.MaintenanceStatus().Durability.Replay; r == nil || r.DamagedSegments != row.damaged {
					t.Errorf("reopen %d: replay = %+v, want %d damaged segments", reopen, r, row.damaged)
				}
				// One warning per damaged entry, however many units repeat it.
				if n := strings.Count(logs.String(), " not served"); n != row.damaged {
					t.Errorf("reopen %d: %d warnings of a dataset not served, want %d:\n%s", reopen, n, row.damaged, logs.String())
				}
				m := manifestSegments(t, mem)
				if len(m) != row.entries {
					t.Errorf("reopen %d: manifest entries %v, want %d", reopen, m, row.entries)
				}
				checkOneEntryPerName(t, l)
				for sql, want := range row.served {
					got, err := l.QuerySQL(ctx, "dana", sql)
					if err != nil {
						t.Errorf("reopen %d: %s: %v", reopen, sql, err)
					} else if csv := table.ToCSV(got); csv != want {
						t.Errorf("reopen %d: %s = %q, want %q", reopen, sql, csv, want)
					}
				}
				for _, path := range row.placed {
					_, placed := l.Poly.PlacementOf(path)
					if _, listed := m[path]; !placed || !listed {
						t.Errorf("reopen %d: %s placed %v, listed in the manifest %v", reopen, path, placed, listed)
					}
				}
				closeLake(t, l)
			}
		})
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

// pinnedManifest is a manifest in the exact bytes the lake wrote before
// its manifest entries became WAL records, plus the inline entries of
// the format before segments: raw/a.csv and ab name segments 1 and 2,
// raw/b.csv and ba carry their bytes inline.
const pinnedManifest = `{"version":2,"users":{"carl":"curator","dana":"data-scientist"},` +
	`"datasets":[{"path":"raw/a.csv","source":"erp","user":"dana","segment":"0000000000000001"},` +
	`{"path":"raw/b.csv","source":"erp","user":"dana","data":"ayx2CmIsMQo="}],` +
	`"derived":[{"name":"ab","activity":"copy","user":"dana","inputs":["raw/a.csv"],"segment":"0000000000000002"},` +
	`{"name":"ba","activity":"copy","user":"dana","inputs":["raw/b.csv"],"csv":"k,v\nba,1\n"}],` +
	`"events":[{"seq":1,"kind":"ingest","entity":"raw/a.csv","system":"erp","user":"dana","at":"2026-10-01T12:00:00Z"}],` +
	`"maintained":false,"ingest_gen":4,"maintained_gen":0,"pending":["raw/a.csv","raw/b.csv"]}`

// The manifest format is pinned both ways. A manifest in the bytes
// written before its entries became WAL records, in segment and inline
// form, opens to its datasets and derived tables; and the manifest
// written after an ingest, a derive, an evict and the move of those
// inline bytes into segments gives each entry exactly the keys it had
// then: no kind, events or inline bytes.
func TestPersistManifestFormatUnchanged(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	for name, body := range map[string]string{"0000000000000001": "k,v\na,1\n", "0000000000000002": "k,v\nab,1\n"} {
		if err := mem.PutSegment(name, persist.EncodeFrame([]byte(body))); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Checkpoint([]byte(pinnedManifest)); err != nil {
		t.Fatal(err)
	}
	l, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(l.Catalog.List()); got != "[raw/a.csv raw/b.csv]" {
		t.Errorf("catalog = %s", got)
	}
	got, err := l.QuerySQL(ctx, "dana", "SELECT k, v FROM a, b, ab, ba ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if csv := table.ToCSV(got); csv != "k,v\na,1\nab,1\nb,1\nba,1\n" {
		t.Errorf("rows = %q", csv)
	}

	if _, err := l.Ingest(ctx, "raw/c.csv", []byte("k,v\nc,1\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	cd, _ := table.ParseCSV("cd", "k,v\ncd,1\n")
	if err := l.Derive(ctx, "dana", "copy", []string{"raw/c.csv"}, cd); err != nil {
		t.Fatal(err)
	}
	if err := l.Evict(ctx, "carl", "raw/a.csv"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Datasets []map[string]json.RawMessage `json:"datasets"`
		Derived  []map[string]json.RawMessage `json:"derived"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	keys := func(e map[string]json.RawMessage) string {
		out := make([]string, 0, len(e))
		for k := range e {
			out = append(out, k)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	for _, list := range []struct {
		name, want string
		entries    []map[string]json.RawMessage
		n          int
	}{
		{"datasets", "path,segment,source,user", m.Datasets, 2},
		{"derived", "activity,inputs,name,segment,user", m.Derived, 3},
	} {
		if len(list.entries) != list.n {
			t.Errorf("manifest %s = %d entries, want %d: %s", list.name, len(list.entries), list.n, data)
		}
		for _, e := range list.entries {
			if got := keys(e); got != list.want {
				t.Errorf("manifest %s entry has keys %s, want %s", list.name, got, list.want)
			}
		}
	}
}
