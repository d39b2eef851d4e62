package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"golake/internal/persist"
	"golake/internal/provenance"
	"golake/internal/query"
	"golake/lakeerr"
)

// writeLogOrderLake writes onto b a manifest and a WAL whose replay is
// right only if every unit is published in log order: a dataset
// ingested, evicted and ingested again with other content; two paths
// sharing a basename, of which the first wins; an undecodable frame;
// an ingest in the format before segments, whose bytes replay stores
// under the next free name, and its event as a separate audit record; a
// segment deleted after its record was logged, named above every stored
// segment and logged after the inline ingest, so the inline bytes take
// a lower name only if names are handed out in log order; a derive; and
// one more ingest after all of them.
func writeLogOrderLake(t *testing.T, b persist.Backend) {
	t.Helper()
	at := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	seq := 0
	stamp := func(evs ...provenance.Event) []provenance.Event {
		for i := range evs {
			seq++
			evs[i].Seq, evs[i].At = seq, at
		}
		return evs
	}
	one := func(ev provenance.Event) *provenance.Event { return &stamp(ev)[0] }
	seg := func(n uint64, body string) string {
		t.Helper()
		name := fmt.Sprintf("%016x", n)
		if err := b.PutSegment(name, persist.EncodeFrame([]byte(body))); err != nil {
			t.Fatal(err)
		}
		return name
	}
	ingest := func(path, segment string) walRecord {
		return walRecord{Kind: recIngest, Path: path, Segment: segment, Source: "erp", User: "dana",
			Event: one(provenance.IngestEvent(path, "erp", "dana"))}
	}

	snap := lakeSnapshot{
		Version: 2,
		Users:   map[string]string{"dana": string(RoleDataScientist), "carl": string(RoleCurator)},
		Datasets: []walRecord{
			{Path: "raw/m1.csv", Source: "erp", User: "dana", Segment: seg(1, "k,v\nm1,1\nm1,2\n")},
			{Path: "raw/m2.csv", Source: "erp", User: "dana", Segment: seg(2, "k,v\nm2,1\n")},
		},
		Events: stamp(provenance.IngestEvent("raw/m1.csv", "erp", "dana"),
			provenance.IngestEvent("raw/m2.csv", "erp", "dana")),
		IngestGen: 2,
	}
	manifest, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(manifest); err != nil {
		t.Fatal(err)
	}
	gone := seg(0x20, "k,v\ngone,1\n")
	if err := b.DeleteSegment(gone); err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{}
	log := func(rec walRecord) {
		payload, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, payload)
	}
	log(ingest("raw/a.csv", seg(3, "k,v\na,1\n")))
	log(walRecord{Kind: recEvict, Path: "raw/a.csv", User: "carl", Event: one(provenance.DiscardEvent("raw/a.csv", "lake", "carl"))})
	log(ingest("raw/a.csv", seg(4, "k,v\na,2\na,3\n")))
	log(ingest("x/t.csv", seg(5, "k,v\nx,1\n")))
	log(ingest("y/t.csv", seg(6, "k,v\ny,1\n")))
	frames = append(frames, []byte(`{"kind":`))
	log(walRecord{Kind: recIngest, Path: "raw/old.csv", Source: "erp", User: "dana", Data: []byte("k,v\nold,1\n")})
	log(walRecord{Kind: recAudit, Event: one(provenance.IngestEvent("raw/old.csv", "erp", "dana"))})
	log(ingest("raw/gone.csv", gone))
	inputs := []string{"raw/a.csv", "x/t.csv"}
	log(walRecord{Kind: recDerive, Name: "ab", Activity: "union", User: "dana", Inputs: inputs, Segment: seg(7, "k,v\nab,1\n"),
		Events: stamp(provenance.DeriveEvents("union", "lake", "dana", inputs, "ab")...)})
	log(ingest("raw/z.csv", seg(8, "k,v\nz,1\n")))
	for _, f := range frames {
		if err := b.AppendWAL(persist.EncodeFrame(f)); err != nil {
			t.Fatal(err)
		}
	}
}

// replayView renders what a replay leaves behind, in a form two
// replays can be compared by: the catalog, the name index, the ingest
// and derive logs with their segment names, the replay counters, the
// provenance events, the warnings in the order they were logged, and a
// query's NDJSON answer over every served table.
func replayView(t *testing.T, l *Lake, logs *bytes.Buffer) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "catalog %v\n", l.Catalog.List())
	snap, _ := l.buildSnapshot()
	for _, in := range snap.Datasets {
		fmt.Fprintf(&sb, "ingest %s %s\n", in.Path, in.Segment)
	}
	for _, d := range snap.Derived {
		fmt.Fprintf(&sb, "derive %s %s\n", d.Name, d.Segment)
	}
	l.mu.RLock()
	names := make([]string, 0, len(l.nameToPath))
	for name, path := range l.nameToPath {
		names = append(names, name+"="+path)
	}
	l.mu.RUnlock()
	sort.Strings(names)
	fmt.Fprintf(&sb, "names %v\n", names)
	rs := *l.MaintenanceStatus().Durability.Replay
	rs.Duration = 0
	stats, _ := json.Marshal(rs)
	fmt.Fprintf(&sb, "replay %s\n", stats)
	for _, ev := range l.Tracker.Events() {
		line, _ := json.Marshal(ev)
		fmt.Fprintf(&sb, "event %s\n", line)
	}
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "level=WARN") {
			fmt.Fprintf(&sb, "warn %s\n", line)
		}
	}
	st, err := l.Query(context.Background(), "dana", query.Request{SQL: "SELECT k, v FROM m1, m2, a, t, old, ab, z ORDER BY k, v"})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	streamNDJSON(rec, context.Background(), st, nil, false)
	sb.WriteString(rec.Body.String())
	return sb.String()
}

// The view in testdata/replay_log_order.golden is what the one-at-a-time
// replay this parallel one replaced left behind for writeLogOrderLake;
// on either backend, with one processor or four, the replay must leave
// the same.
func TestPersistReplayMatchesLogOrder(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "replay_log_order.golden"))
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]func(t *testing.T) persist.Backend{
		"memory": func(*testing.T) persist.Backend { return persist.NewMemory() },
		"local": func(t *testing.T) persist.Backend {
			b, err := persist.NewLocal(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
	for name, newBackend := range backends {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				b := newBackend(t)
				writeLogOrderLake(t, b)
				var logs bytes.Buffer
				l, err := Open(t.TempDir(), WithPersistence(b), WithLogger(quietTimeLogger(&logs)))
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				if got := replayView(t, l, &logs); got != string(want) {
					t.Errorf("replay view differs from the log-order replay's\ngot:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}

// quietTimeLogger logs text lines without their time, so two runs'
// lines compare equal.
func quietTimeLogger(w *bytes.Buffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
}

// failingReads fails ReadSegment with a backend error for the segments
// in fail, and holds each read of a segment in delay for its delay
// first.
type failingReads struct {
	persist.Backend
	fail  map[string]error
	delay map[string]time.Duration
}

func (b *failingReads) ReadSegment(name string) ([]byte, error) {
	time.Sleep(b.delay[name])
	if err, ok := b.fail[name]; ok {
		return nil, err
	}
	return b.Backend.ReadSegment(name)
}

// When two segments cannot be read, Open fails with the error of the
// one earlier in the log, typed unavailable, however the workers were
// scheduled, and no worker outlives it. The earlier failure is the
// slower one, so on several workers the later one happens first; the
// segments after both are slower still, so a worker left running when
// Open returns is still counted.
func TestPersistReplayFailsOnFirstSegmentInLogOrder(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	live, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	live.AddUser("dana", RoleDataScientist)
	var segs []string
	for i := 0; i < 40; i++ {
		if _, err := live.Ingest(ctx, fmt.Sprintf("raw/t%02d.csv", i), []byte(fmt.Sprintf("k,v\nt%d,%d\n", i, i)), "erp", "dana"); err != nil {
			t.Fatal(err)
		}
		live.mu.RLock()
		segs = append(segs, live.entries[entryKey{path: fmt.Sprintf("raw/t%02d.csv", i)}].Segment)
		live.mu.RUnlock()
	}
	// live is abandoned unclosed: every dataset replays from the WAL.
	errEarly, errLate := errors.New("early segment unreadable"), errors.New("late segment unreadable")
	b := &failingReads{Backend: mem,
		fail:  map[string]error{segs[10]: errEarly, segs[30]: errLate},
		delay: map[string]time.Duration{segs[10]: 20 * time.Millisecond},
	}
	for _, seg := range segs[31:] {
		b.delay[seg] = 300 * time.Millisecond
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			l, err := Open(t.TempDir(), WithPersistence(b))
			if err == nil {
				l.Close()
				t.Fatal("Open succeeded over unreadable segments")
			}
			if !errors.Is(err, errEarly) || lakeerr.CodeOf(err) != lakeerr.CodeUnavailable {
				t.Errorf("Open = %v (%s), want the earlier segment's error, unavailable", err, lakeerr.CodeOf(err))
			}
			// A worker counts until it has returned from its last deferred
			// call, a moment after Open stops waiting for it.
			deadline := time.Now().Add(100 * time.Millisecond)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after Open failed, %d before", n, base)
			}
		})
	}
}

// Reopening a lake of 32 benchmark-shaped (1000 x 5) datasets logged
// in the WAL: about 80 allocations per replayed dataset (Go 1.24), about
// 70 of them each dataset's own and 340 the lake's, shared out. It is
// the same on one processor as on four: the worker pool costs
// O(workers), not O(datasets). The ceiling is the measure plus 10 %.
func TestPersistReopenAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const datasets = 32
	ctx := context.Background()
	mem := persist.NewMemory()
	live, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	live.AddUser("dana", RoleDataScientist)
	for d := 0; d < datasets; d++ {
		var sb strings.Builder
		sb.WriteString("id,site,v,w,note\n")
		for i := 0; i < 1000; i++ {
			fmt.Fprintf(&sb, "ingest_%07d,s%d,%d,%d.5,n%d\n", i, i%50, i*7919%9973+d, i%113, i%1000)
		}
		if _, err := live.Ingest(ctx, fmt.Sprintf("raw/t_%02d.csv", d), []byte(sb.String()), "bench", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	wal, err := mem.ReadWAL()
	if err != nil {
		t.Fatal(err)
	}
	segs, err := mem.ListSegments()
	if err != nil {
		t.Fatal(err)
	}
	// Each reopen starts from a copy of the abandoned lake's WAL and
	// segments: the post-replay checkpoint must not turn the next reopen
	// into a manifest replay.
	fresh := func() persist.Backend {
		b := persist.NewMemory()
		for _, s := range segs {
			data, _ := mem.ReadSegment(s.Name)
			if err := b.PutSegment(s.Name, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.AppendWAL(wal); err != nil {
			t.Fatal(err)
		}
		return b
	}
	perDataset := func(procs int) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		const runs = 5
		var total uint64
		for r := 0; r < runs; r++ {
			b := fresh()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			l, err := Open(t.TempDir(), WithPersistence(b))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(l.Catalog.List()); got != datasets {
				t.Fatalf("reopened lake holds %d datasets, want %d", got, datasets)
			}
			total += after.Mallocs - before.Mallocs
			l.Close()
		}
		return float64(total) / runs / datasets
	}
	const ceiling = 88
	for _, procs := range []int{1, 4} {
		if n := perDataset(procs); n > ceiling {
			t.Errorf("reopen at GOMAXPROCS %d: %.1f allocations per replayed dataset, want <= %d", procs, n, ceiling)
		} else {
			t.Logf("reopen at GOMAXPROCS %d: %.1f allocations per replayed dataset", procs, n)
		}
	}
}
