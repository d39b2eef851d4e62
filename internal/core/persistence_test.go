package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"golake/internal/explore"
	"golake/internal/organize"
	"golake/internal/persist"
	"golake/internal/provenance"
	"golake/internal/storage/filestore"
	"golake/internal/table"
	"golake/internal/workload"
	"golake/lakeerr"
)

// openPersistent opens a lake over dir backed by a fresh local
// persistence backend rooted at dir/.golake — the same layout lakectl
// uses. Each call makes a new backend handle, so reopening after a
// "hard stop" (abandoning a lake without Close) works like a process
// restart.
func openPersistent(t *testing.T, dir string, opts ...Option) *Lake {
	t.Helper()
	b, err := persist.NewLocal(filepath.Join(dir, filestore.PersistDir))
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, append([]Option{WithPersistence(b)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestPersistHardStopReopenServesIdenticalQuery is the headline
// recovery property: ingest + maintain, hard-stop the process (no
// Close, so no final snapshot), reopen from the WAL alone, and the
// reopened lake serves byte-identical query results and plans its
// first maintenance pass incrementally.
func TestPersistHardStopReopenServesIdenticalQuery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l := openPersistent(t, dir)
	l.AddUser("dana", RoleDataScientist)
	l.AddUser("carl", RoleCurator)
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n2,20\n3,15\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Ingest(ctx, "raw/users.csv", []byte("id,name\n1,ann\n2,bo\n3,cy\n"), "crm", "dana"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := l.QuerySQL(ctx, "dana", "SELECT id, total FROM orders ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := table.ToCSV(want)

	// Hard stop: l is abandoned without Close.
	re := openPersistent(t, dir)
	defer re.Close()
	got, err := re.QuerySQL(ctx, "dana", "SELECT id, total FROM orders ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if gotCSV := table.ToCSV(got); gotCSV != wantCSV {
		t.Errorf("reopened query = %q, want byte-identical %q", gotCSV, wantCSV)
	}
	st := re.MaintenanceStatus()
	if st.Durability == nil {
		t.Fatal("no durability status on a persistent lake")
	}
	if st.Durability.Replay == nil || st.Durability.Replay.WALRecords == 0 {
		t.Errorf("replay stats = %+v, want WAL records replayed", st.Durability.Replay)
	}
	// The coverage checkpoint written after Maintain must make the first
	// pass after reopen incremental — only the new dataset is indexed.
	if _, err := re.Ingest(ctx, "raw/extra.csv", []byte("id,v\n1,2\n2,3\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	rep, err := re.MaintainIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "incremental" {
		t.Errorf("first pass after reopen = %s (%s), want incremental", rep.Mode, rep.Reason)
	}
	if rep.DatasetsReindexed != 1 {
		t.Errorf("reindexed %d datasets, want 1", rep.DatasetsReindexed)
	}
}

func TestPersistCleanCloseReopenResumesIncrementally(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l := openPersistent(t, dir)
	l.AddUser("dana", RoleDataScientist)
	for name, csv := range map[string]string{
		"orders": "id,total\n1,10\n2,20\n3,15\n4,8\n",
		"users":  "id,name\n1,ann\n2,bo\n3,cy\n4,dee\n",
		"items":  "sku,qty\na,1\nb,2\n",
	} {
		if _, err := l.Ingest(ctx, "raw/"+name+".csv", []byte(csv), "src", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := openPersistent(t, dir)
	defer re.Close()
	st := re.MaintenanceStatus()
	if st.Durability == nil || st.Durability.Replay == nil {
		t.Fatal("no replay stats after reopen")
	}
	if st.Durability.Replay.SnapshotDatasets != 3 {
		t.Errorf("snapshot datasets = %d, want 3", st.Durability.Replay.SnapshotDatasets)
	}
	// Exploration answers immediately from the indexes rebuilt out of
	// the restored coverage — no maintenance pass needed first.
	q, err := re.Poly.Rel.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	res, err := re.Explore(ctx, "dana", explore.Request{Mode: explore.ModeJoinColumn, Query: q, Column: "id", K: 5})
	if err != nil {
		t.Fatalf("explore before first pass: %v", err)
	}
	if len(res) == 0 {
		t.Error("explore found nothing; index not rebuilt from coverage")
	}
	if _, err := re.Ingest(ctx, "raw/extra.csv", []byte("id,v\n1,2\n"), "src", "dana"); err != nil {
		t.Fatal(err)
	}
	rep, err := re.MaintainIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "incremental" || rep.DatasetsReindexed != 1 {
		t.Errorf("pass = %s/%d reindexed (%s), want incremental/1", rep.Mode, rep.DatasetsReindexed, rep.Reason)
	}
}

// TestPersistTornWALTailDroppedNotFatal: tearing the WAL's tail, as a
// crashed partial write would, tears b's one record, so reopen drops
// raw/b.csv together with its ingest event, and raw/a.csv keeps its own.
func TestPersistTornWALTailDroppedNotFatal(t *testing.T) {
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
	// Hard stop, then tear the WAL tail as a crashed partial write
	// would.
	walPath := filepath.Join(dir, filestore.PersistDir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, int64(len(data)-3)); err != nil {
		t.Fatal(err)
	}
	re := openPersistent(t, dir)
	defer re.Close()
	st := re.MaintenanceStatus()
	if st.Durability == nil || st.Durability.Replay == nil || st.Durability.Replay.TornBytes == 0 {
		t.Errorf("replay = %+v, want torn bytes reported", st.Durability.Replay)
	}
	if _, ok := re.Poly.PlacementOf("raw/a.csv"); !ok {
		t.Error("raw/a.csv lost in torn-tail recovery")
	}
	if log := re.Tracker.AccessLog("raw/a.csv"); len(log) != 1 || log[0].Kind != provenance.EventIngest {
		t.Errorf("audit of raw/a.csv = %+v, want its ingest event", log)
	}
	if _, ok := re.Poly.PlacementOf("raw/b.csv"); ok {
		t.Error("raw/b.csv survived its torn record")
	}
	if log := re.Tracker.AccessLog("raw/b.csv"); len(log) != 0 {
		t.Errorf("audit of raw/b.csv = %+v, want none: its event went with its record", log)
	}
}

// TestPersistKillAtEveryWALByte is the kill-at-every-record harness:
// the WAL of a small lake — two ingests, a two-source query's grouped
// audit record, a third ingest — is truncated at every frame boundary
// and at every byte offset from the query's record on, beside every
// segment the lake wrote, and each truncation must reopen cleanly with
// exactly the datasets whose ingest records survived complete — the
// torn tail is dropped, never fatal — and keep only their segments: a
// segment whose record was cut away is an orphan, deleted at open. The
// audit trail of every dataset is exactly the events of the records that
// survived, and no cut leaves a dataset without its ingest event, or an
// ingest event without its dataset.
func TestPersistKillAtEveryWALByte(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l := openPersistent(t, dir)
	l.AddUser("dana", RoleDataScientist)
	ingest := func(path, csv string) {
		t.Helper()
		if _, err := l.Ingest(ctx, path, []byte(csv), "src", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	ingest("raw/a.csv", "x,y\n1,2\n")
	ingest("raw/b.csv", "x,z\n1,3\n")
	if _, err := l.QuerySQL(ctx, "dana", "SELECT x FROM a, b"); err != nil {
		t.Fatal(err)
	}
	ingest("raw/c.csv", "x,w\n1,4\n")
	wal, err := os.ReadFile(filepath.Join(dir, filestore.PersistDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	segDir := filepath.Join(dir, filestore.PersistDir, "segments")
	segs, err := os.ReadDir(segDir)
	if err != nil || len(segs) != 3 {
		t.Fatalf("segments = %v, %v; want one per ingest", segs, err)
	}
	var ends []int
	queryAt := -1 // where the grouped audit record's frame starts
	for off := 0; off+8 <= len(wal); {
		n := int(binary.LittleEndian.Uint32(wal[off:]))
		if off+8+n > len(wal) {
			break
		}
		var rec walRecord
		if json.Unmarshal(wal[off+8:off+8+n], &rec) == nil && rec.Event != nil && len(rec.Event.Entities) == 2 {
			queryAt = off
		}
		off += 8 + n
		ends = append(ends, off)
	}
	if queryAt < 0 || ends[len(ends)-1] != len(wal) {
		t.Fatalf("unexpected wal shape: %d frames over %d bytes, grouped query record at %d", len(ends), len(wal), queryAt)
	}
	cuts := []int{0}
	for _, end := range ends {
		if end < queryAt {
			cuts = append(cuts, end)
		}
	}
	for c := queryAt; c <= len(wal); c++ {
		cuts = append(cuts, c)
	}
	for _, cut := range cuts {
		// A fresh directory holding only the truncated WAL and the
		// segments: replay alone must reconstruct the lake.
		cdir := t.TempDir()
		pdir := filepath.Join(cdir, filestore.PersistDir)
		if err := os.MkdirAll(filepath.Join(pdir, "segments"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pdir, "wal.log"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		for _, e := range segs {
			data, err := os.ReadFile(filepath.Join(segDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(pdir, "segments", e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		wantIngests := 0
		wantAudit := map[string][]provenance.Event{}
		frames, _ := persist.DecodeFrames(wal[:cut])
		for _, payload := range frames {
			var rec walRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Kind == recIngest {
				wantIngests++
			}
			for _, ev := range rec.events() {
				entities := ev.Entities
				if len(entities) == 0 {
					entities = []string{ev.Entity}
				}
				for _, e := range entities {
					one := ev
					one.Entity, one.Entities = e, nil
					wantAudit[e] = append(wantAudit[e], one)
				}
			}
		}
		re := openPersistent(t, cdir) // Fatal inside if the open fails
		if got := len(re.Poly.Placements()); got != wantIngests {
			t.Errorf("cut at %d/%d: %d datasets recovered, want %d", cut, len(wal), got, wantIngests)
		}
		if got := re.MaintenanceStatus().Durability.Segments; got != wantIngests {
			t.Errorf("cut at %d/%d: %d segments kept, want %d", cut, len(wal), got, wantIngests)
		}
		for _, entity := range []string{"raw/a.csv", "raw/b.csv", "raw/c.csv"} {
			got := re.Tracker.AccessLog(entity)
			if !reflect.DeepEqual(got, wantAudit[entity]) {
				t.Errorf("cut at %d/%d: audit of %s = %+v, want %+v", cut, len(wal), entity, got, wantAudit[entity])
			}
			_, served := re.Poly.PlacementOf(entity)
			if logged := len(got) > 0 && got[0].Kind == provenance.EventIngest; served != logged {
				t.Errorf("cut at %d/%d: %s served %v, its ingest event logged %v", cut, len(wal), entity, served, logged)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut at %d: close: %v", cut, err)
		}
	}
}

// TestPersistAuditOldAndGroupedFormsReplay: a WAL written by hand with
// a two-source statement's audit in the old per-source form (one record
// per source) and a grouped record (one record, both entities) reopens
// to the audit trail a live lake answers after the same history — two
// single-source queries write the old form's records exactly — and the
// trail survives a checkpoint round trip, the manifest holding the
// grouped event as one event.
func TestPersistAuditOldAndGroupedFormsReplay(t *testing.T) {
	ctx := context.Background()
	at := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	clock := WithClock(func() time.Time { return at })
	live, err := Open(t.TempDir(), WithPersistence(persist.NewMemory()), clock)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	live.AddUser("dana", RoleDataScientist)
	live.AddUser("gov", RoleGovernance)
	for _, p := range []string{"raw/a.csv", "raw/b.csv"} {
		if _, err := live.Ingest(ctx, p, []byte("x\n1\n"), "erp", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{"SELECT x FROM a", "SELECT x FROM b", "SELECT x FROM a, b"} {
		if _, err := live.QuerySQL(ctx, "dana", q); err != nil {
			t.Fatal(err)
		}
	}
	trail := func(l *Lake) [][]provenance.Event {
		t.Helper()
		var out [][]provenance.Event
		for _, p := range []string{"raw/a.csv", "raw/b.csv"} {
			evs, err := l.Audit(ctx, "gov", p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, evs)
		}
		return out
	}
	want := trail(live)
	if len(want[0]) != 3 || want[0][2].Seq != want[1][2].Seq {
		t.Fatalf("live audit trail = %+v, want ingest and two queries each, the last sharing its seq", want)
	}

	mem := persist.NewMemory()
	for _, rec := range []string{
		`{"kind":"user","name":"gov","role":"governance"}`,
		`{"kind":"audit","event":{"seq":1,"kind":"ingest","entity":"raw/a.csv","system":"erp","user":"dana","at":"2026-06-12T10:00:00Z"}}`,
		`{"kind":"audit","event":{"seq":2,"kind":"ingest","entity":"raw/b.csv","system":"erp","user":"dana","at":"2026-06-12T10:00:00Z"}}`,
		`{"kind":"audit","event":{"seq":3,"kind":"query","entity":"raw/a.csv","system":"sql","user":"dana","at":"2026-06-12T10:00:00Z"}}`,
		`{"kind":"audit","event":{"seq":4,"kind":"query","entity":"raw/b.csv","system":"sql","user":"dana","at":"2026-06-12T10:00:00Z"}}`,
		`{"kind":"audit","event":{"seq":5,"kind":"query","entities":["raw/a.csv","raw/b.csv"],"system":"sql","user":"dana","at":"2026-06-12T10:00:00Z"}}`,
	} {
		if err := mem.AppendWAL(persist.EncodeFrame([]byte(rec))); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	if got := trail(re); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed audit trail = %+v, want the live lake's %+v", got, want)
	}
	if err := re.Close(); err != nil { // final checkpoint, WAL truncated
		t.Fatal(err)
	}
	if wal, _ := mem.ReadWAL(); len(wal) != 0 {
		t.Fatalf("wal after close = %d bytes, want a checkpointed empty log", len(wal))
	}
	snap, err := mem.ReadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var manifest lakeSnapshot
	if err := json.Unmarshal(snap, &manifest); err != nil || len(manifest.Events) != 5 ||
		!reflect.DeepEqual(manifest.Events[4].Entities, []string{"raw/a.csv", "raw/b.csv"}) {
		t.Fatalf("manifest events = %+v (%v), want five, the last grouped", manifest.Events, err)
	}
	re, err = Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := trail(re); !reflect.DeepEqual(got, want) {
		t.Errorf("audit trail after a checkpoint round trip = %+v, want %+v", got, want)
	}
}

// TestPersistOneAppendPerWrite: an ingest, a derive and an evict each
// commit as exactly one WAL record, which carries the provenance events
// the write captured; no audit record follows any of them.
func TestPersistOneAppendPerWrite(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	l, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AddUser("dana", RoleDataScientist)
	l.AddUser("carl", RoleCurator)
	walBefore, _ := mem.ReadWAL()
	step := func(name string, write func() error) {
		t.Helper()
		before := l.metrics.walAppends.Value()
		if err := write(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := l.metrics.walAppends.Value() - before; n != 1 {
			t.Errorf("%s appended %v WAL records, want 1", name, n)
		}
	}
	step("ingest", func() error {
		_, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n2,30\n"), "erp", "dana")
		return err
	})
	derived, _ := table.ParseCSV("big_orders", "id,total\n2,30\n")
	step("derive", func() error { return l.Derive(ctx, "dana", "filter_big", []string{"raw/orders.csv"}, derived) })
	step("evict", func() error { return l.Evict(ctx, "carl", "raw/orders.csv") })

	wal, _ := mem.ReadWAL()
	frames, _ := persist.DecodeFrames(wal[len(walBefore):])
	var got []string
	for _, payload := range frames {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		evs := rec.events()
		kinds := make([]string, len(evs))
		for i, ev := range evs {
			kinds[i] = string(ev.Kind)
		}
		got = append(got, rec.Kind+strings.Join(kinds, "+"))
	}
	want := []string{"ingestingest", "deriveread+write+derive", "evictdiscard"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wal records = %q, want %q", got, want)
	}
}

// TestPersistIngestOldAndOneRecordFormsReplay: a lake's history of
// ingests, a derive, a query and an evict, logged in the one-record form
// and rewritten by hand into the older form — each write's record
// without its events, then one audit record per event — replays to the
// audit trail and lineage the live lake answers, from either form, and
// again after a checkpoint round trip.
func TestPersistIngestOldAndOneRecordFormsReplay(t *testing.T) {
	ctx := context.Background()
	at := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	mem := persist.NewMemory()
	live, err := Open(t.TempDir(), WithPersistence(mem), WithClock(func() time.Time { return at }))
	if err != nil {
		t.Fatal(err)
	}
	live.AddUser("dana", RoleDataScientist)
	live.AddUser("carl", RoleCurator)
	for _, p := range []string{"raw/a.csv", "raw/b.csv"} {
		if _, err := live.Ingest(ctx, p, []byte("x\n1\n"), "erp", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	derived, _ := table.ParseCSV("ab", "x\n1\n")
	if err := live.Derive(ctx, "dana", "union", []string{"raw/a.csv", "raw/b.csv"}, derived); err != nil {
		t.Fatal(err)
	}
	if _, err := live.QuerySQL(ctx, "dana", "SELECT x FROM a, b"); err != nil {
		t.Fatal(err)
	}
	if err := live.Evict(ctx, "carl", "raw/b.csv"); err != nil {
		t.Fatal(err)
	}
	entities := []string{"raw/a.csv", "raw/b.csv", "ab"}
	type answers struct {
		Trails  [][]provenance.Event
		Lineage []string
		Served  []bool
	}
	answer := func(l *Lake) answers {
		t.Helper()
		var a answers
		for _, e := range entities {
			a.Trails = append(a.Trails, l.Tracker.AccessLog(e))
			_, ok := l.Poly.PlacementOf(e)
			a.Served = append(a.Served, ok || l.Poly.Rel.Has(e))
		}
		var err error
		if a.Lineage, err = l.Lineage(ctx, "ab"); err != nil {
			t.Fatal(err)
		}
		return a
	}
	want := answer(live)
	if len(want.Trails[1]) != 4 || !reflect.DeepEqual(want.Served, []bool{true, false, true}) {
		t.Fatalf("live answers = %+v, want b ingested, read, queried and discarded", want)
	}

	wal, _ := mem.ReadWAL()
	frames, _ := persist.DecodeFrames(wal)
	var oneRecord, old [][]byte
	for _, payload := range frames {
		oneRecord = append(oneRecord, payload)
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		evs := rec.events()
		if rec.Kind == recAudit || len(evs) == 0 {
			old = append(old, payload)
			continue
		}
		rec.Event, rec.Events = nil, nil
		op, _ := json.Marshal(&rec)
		old = append(old, op)
		for _, ev := range evs {
			audit, _ := json.Marshal(&walRecord{Kind: recAudit, Event: &ev})
			old = append(old, audit)
		}
	}
	if len(old) != len(oneRecord)+7 {
		t.Fatalf("old form has %d records, one-record form %d; want 7 more audit records", len(old), len(oneRecord))
	}
	for name, recs := range map[string][][]byte{"one-record": oneRecord, "old": old} {
		b := persist.NewMemory()
		segs, _ := mem.ListSegments()
		for _, sg := range segs {
			data, _ := mem.ReadSegment(sg.Name)
			if err := b.PutSegment(sg.Name, data); err != nil {
				t.Fatal(err)
			}
		}
		for _, rec := range recs {
			if err := b.AppendWAL(persist.EncodeFrame(rec)); err != nil {
				t.Fatal(err)
			}
		}
		for _, round := range []string{"replay", "checkpoint round trip"} {
			re, err := Open(t.TempDir(), WithPersistence(b))
			if err != nil {
				t.Fatal(err)
			}
			if got := answer(re); !reflect.DeepEqual(got, want) {
				t.Errorf("%s form, %s: answers = %+v, want the live lake's %+v", name, round, got, want)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPersistMemoryBackendKeepsDerivedAndAudit(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	l, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	l.AddUser("gov", RoleGovernance)
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n2,30\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	derived, _ := table.ParseCSV("big_orders", "id,total\n2,30\n")
	if err := l.Derive(ctx, "dana", "filter_big", []string{"raw/orders.csv"}, derived); err != nil {
		t.Fatal(err)
	}
	if _, err := l.QuerySQL(ctx, "dana", "SELECT id FROM orders"); err != nil {
		t.Fatal(err)
	}
	wantAudit, err := l.Audit(ctx, "gov", "raw/orders.csv")
	if err != nil {
		t.Fatal(err)
	}
	wantDerived := table.ToCSV(derived)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The memory backend survives Close readable, standing in for a
	// shared remote store across lake generations.
	re, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.roleOf("dana"); err != nil {
		t.Errorf("user lost: %v", err)
	}
	got, err := re.Poly.Rel.Table("big_orders")
	if err != nil {
		t.Fatalf("derived table lost: %v", err)
	}
	if table.ToCSV(got) != wantDerived {
		t.Errorf("derived table = %q, want %q", table.ToCSV(got), wantDerived)
	}
	up, err := re.Lineage(ctx, "big_orders")
	if err != nil || len(up) != 1 || up[0] != "raw/orders.csv" {
		t.Errorf("lineage = %v, %v", up, err)
	}
	gotAudit, err := re.Audit(ctx, "gov", "raw/orders.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAudit) != len(wantAudit) {
		t.Fatalf("audit trail = %d events, want %d", len(gotAudit), len(wantAudit))
	}
	for i := range wantAudit {
		w, g := wantAudit[i], gotAudit[i]
		if g.Kind != w.Kind || g.User != w.User || g.Seq != w.Seq || !g.At.Equal(w.At) {
			t.Errorf("audit[%d] = %+v, want %+v", i, g, w)
		}
	}
}

// Audit events used to be written with provenance.Event's field names as
// JSON keys, in snapshots and in audit WAL records. encoding/json
// matches keys case-insensitively, so a lake persisted that way reopens
// with its audit trail, and its next checkpoint writes the short keys.
func TestPersistCapitalisedAuditKeysStillDecode(t *testing.T) {
	mem := persist.NewMemory()
	snap := `{"version":1,"users":{"gov":"governance"},"maintained":false,"ingest_gen":0,"maintained_gen":0,` +
		`"events":[{"Seq":1,"Kind":"ingest","Entity":"raw/a.csv","Activity":"","System":"files","User":"dana","At":"2026-06-12T10:00:01Z"}]}`
	if err := mem.Checkpoint([]byte(snap)); err != nil {
		t.Fatal(err)
	}
	rec := `{"kind":"audit","event":{"Seq":2,"Kind":"read","Entity":"raw/a.csv","Activity":"job","System":"spark","User":"bob","At":"2026-06-12T10:00:02Z"}}`
	if err := mem.AppendWAL(persist.EncodeFrame([]byte(rec))); err != nil {
		t.Fatal(err)
	}
	l, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got, err := l.Audit(context.Background(), "gov", "raw/a.csv")
	if err != nil {
		t.Fatal(err)
	}
	want := []provenance.Event{
		{Seq: 1, Kind: provenance.EventIngest, Entity: "raw/a.csv", System: "files", User: "dana", At: time.Date(2026, 6, 12, 10, 0, 1, 0, time.UTC)},
		{Seq: 2, Kind: provenance.EventRead, Entity: "raw/a.csv", Activity: "job", System: "spark", User: "bob", At: time.Date(2026, 6, 12, 10, 0, 2, 0, time.UTC)},
	}
	if len(got) != len(want) {
		t.Fatalf("audit trail = %+v, want %+v", got, want)
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Seq != w.Seq || g.Kind != w.Kind || g.Entity != w.Entity || g.Activity != w.Activity ||
			g.System != w.System || g.User != w.User || !g.At.Equal(w.At) {
			t.Errorf("audit[%d] = %+v, want %+v", i, g, w)
		}
	}
	// Open compacted the replayed WAL into a snapshot in the new form.
	data, err := mem.ReadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var written struct {
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(data, &written); err != nil || len(written.Events) != 2 {
		t.Fatalf("snapshot events = %s (%v)", data, err)
	}
	for _, ev := range written.Events {
		if _, ok := ev["seq"]; !ok {
			t.Errorf("snapshot event keys = %v, want short lowercase keys", ev)
		}
	}
}

func TestPersistEvictSurvivesReplay(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	l, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	l.AddUser("carl", RoleCurator)
	for _, p := range []string{"raw/a.csv", "raw/b.csv"} {
		if _, err := l.Ingest(ctx, p, []byte("x,y\n1,2\n"), "src", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Evict(ctx, "carl", "raw/a.csv"); err != nil {
		t.Fatal(err)
	}
	// Hard stop: the eviction exists only as a WAL record.
	re, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Poly.PlacementOf("raw/a.csv"); ok {
		t.Error("evicted dataset came back after replay")
	}
	if _, ok := re.Poly.PlacementOf("raw/b.csv"); !ok {
		t.Error("surviving dataset lost")
	}
}

// An evict whose own append crosses the snapshot threshold checkpoints
// a lake the dataset has already left: the manifest written and the log
// truncated, a hard-stopped reopen still finds it evicted.
func TestPersistEvictWhoseAppendCheckpoints(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	l, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	l.AddUser("carl", RoleCurator)
	for _, p := range []string{"raw/a.csv", "raw/b.csv"} {
		if _, err := l.Ingest(ctx, p, []byte("x,y\n1,2\n"), "src", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	l.pers.threshold = 1 // every append checkpoints
	if err := l.Evict(ctx, "carl", "raw/a.csv"); err != nil {
		t.Fatal(err)
	}
	if sz, err := mem.WALSize(); err != nil || sz != 0 {
		t.Fatalf("wal after the evict = %d bytes (%v), want truncated by its checkpoint", sz, err)
	}
	re, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Poly.PlacementOf("raw/a.csv"); ok {
		t.Error("evicted dataset came back from the evict's own checkpoint")
	}
	if _, ok := re.Poly.PlacementOf("raw/b.csv"); !ok {
		t.Error("surviving dataset lost")
	}
}

func TestEvictKeepsMaintenanceIncremental(t *testing.T) {
	ctx := context.Background()
	l := testLake(t)
	for name, csv := range map[string]string{
		"orders": "id,total\n1,10\n2,20\n3,15\n4,8\n",
		"users":  "id,name\n1,ann\n2,bo\n3,cy\n4,dee\n",
		"items":  "sku,qty\na,1\nb,2\n",
	} {
		if _, err := l.Ingest(ctx, "raw/"+name+".csv", []byte(csv), "src", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.Evict(ctx, "carl", "raw/users.csv"); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Poly.PlacementOf("raw/users.csv"); ok {
		t.Error("placement survived eviction")
	}
	if l.Poly.Rel.Has("users") {
		t.Error("table survived eviction")
	}
	if _, ok := l.Catalog.Entry("raw/users.csv"); ok {
		t.Error("catalog entry survived eviction")
	}
	if _, err := l.GEMMS.Object("raw/users.csv"); err == nil {
		t.Error("metadata survived eviction")
	}
	// The whole point of incremental eviction: the next pass must not
	// fall back to a full rebuild.
	rep, err := l.MaintainIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "incremental" {
		t.Errorf("pass after evict = %s (%s), want incremental", rep.Mode, rep.Reason)
	}
	if rep.DatasetsReindexed != 0 {
		t.Errorf("reindexed %d datasets after evict, want 0", rep.DatasetsReindexed)
	}
	q, err := l.Poly.Rel.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Explore(ctx, "dana", explore.Request{Mode: explore.ModeJoinColumn, Query: q, Column: "id", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Table == "users" {
			t.Error("evicted table still in exploration index")
		}
	}
	// Data scientists cannot evict; unknown paths are NotFound.
	if err := l.Evict(ctx, "dana", "raw/orders.csv"); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("unauthorized evict = %v", err)
	}
	if err := l.Evict(ctx, "carl", "raw/nope.csv"); lakeerr.CodeOf(err) != lakeerr.CodeNotFound {
		t.Errorf("missing evict = %v", err)
	}
}

// TestCloseMidPassDrainsScheduler closes the lake while the 1ms
// auto-maintenance scheduler is mid-flight over freshly ingested data:
// Close must drain the pass before the final snapshot, the final
// snapshot must carry every ingest, and a second Close is a no-op.
func TestCloseMidPassDrainsScheduler(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	l, err := Open(t.TempDir(), WithPersistence(mem), WithAutoMaintain(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := l.Ingest(ctx, fmt.Sprintf("raw/t%d_%d.csv", i, j), []byte("id,v\n1,2\n"), "src", "dana"); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	// Passes fire every millisecond, so Close almost certainly lands
	// mid-pass; it must block on the drain, not race it.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	re, err := Open(t.TempDir(), WithPersistence(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := len(re.Poly.Placements()); got != 20 {
		t.Errorf("recovered %d datasets, want 20", got)
	}
}

func TestHTTPDurabilityStatusAndEvict(t *testing.T) {
	ctx := context.Background()
	l, err := Open(t.TempDir(), WithPersistence(persist.NewMemory()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AddUser("dana", RoleDataScientist)
	l.AddUser("carl", RoleCurator)
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/maintenance")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Durability *struct {
			Backend      string `json:"backend"`
			WALRecords   uint64 `json:"wal_records"`
			Segments     int    `json:"segments"`
			SegmentBytes int64  `json:"segment_bytes"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Durability == nil || st.Durability.Backend != "memory" {
		t.Fatalf("durability over HTTP = %+v, want memory backend", st.Durability)
	}
	if st.Durability.WALRecords == 0 {
		t.Error("wal_records = 0, want the ingest counted")
	}
	if want := int64(len("id,total\n1,10\n")) + 8; st.Durability.Segments != 1 || st.Durability.SegmentBytes != want {
		t.Errorf("segments = %d (%d B), want the ingest's one framed segment (%d B)",
			st.Durability.Segments, st.Durability.SegmentBytes, want)
	}

	del := func(path, user string) *http.Response {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/datasets?path="+path, nil)
		if user != "" {
			req.Header.Set("X-Lake-User", user)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := del("raw/orders.csv", "dana"); resp.StatusCode != http.StatusForbidden {
		t.Errorf("evict as data scientist = %d, want 403", resp.StatusCode)
	}
	if resp := del("", "carl"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("evict without path = %d, want 400", resp.StatusCode)
	}
	if resp := del("raw/orders.csv", "carl"); resp.StatusCode != http.StatusOK {
		t.Errorf("evict as curator = %d, want 200", resp.StatusCode)
	}
	if _, ok := l.Poly.PlacementOf("raw/orders.csv"); ok {
		t.Error("dataset survived HTTP eviction")
	}
	if resp := del("raw/orders.csv", "carl"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("double evict = %d, want 404", resp.StatusCode)
	}
}

// TestPersistReopenRebuildsCategoriesAndRelated: reopening a maintained
// lake builds DS-kNN beside the explorer index. The categories must be
// those of a DS-kNN built sequentially over the covered tables in the
// same sorted order, and related-table answers those served before the
// close, with no goroutine left behind. The lake is maintained by a
// full pass: after an incremental one the D3L embedding is an
// approximation that a rebuild squares up, so answers may move.
func TestPersistReopenRebuildsCategoriesAndRelated(t *testing.T) {
	leakCheck(t)
	ctx := context.Background()
	dir := t.TempDir()
	spec := workload.DefaultSpec()
	spec.NumTables, spec.RowsPerTable = 24, 40
	corpus := workload.GenerateCorpus(spec)
	l := openPersistent(t, dir)
	l.AddUser("dana", RoleDataScientist)
	for _, tb := range corpus.Tables {
		if _, err := l.Ingest(ctx, "raw/"+tb.Name+".csv", []byte(table.ToCSV(tb)), "generator", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	related := func(l *Lake) map[string][]explore.Result {
		out := map[string][]explore.Result{}
		for _, tb := range corpus.Tables {
			res, err := l.RelatedTables(ctx, "dana", tb.Name, 3)
			if err != nil {
				t.Fatal(err)
			}
			out[tb.Name] = res
		}
		return out
	}
	want := related(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := openPersistent(t, dir)
	defer re.Close()
	seq := organize.NewDSKNN()
	for _, name := range re.planner.Covered() {
		tb, err := re.Poly.Rel.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		seq.Add(tb)
	}
	if got, want := re.knn.Categories(), seq.Categories(); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened categories = %v, sequential build = %v", got, want)
	}
	if len(seq.Categories()) < 2 {
		t.Errorf("sequential build has %d categories; the corpus should split", len(seq.Categories()))
	}
	if got := related(re); !reflect.DeepEqual(got, want) {
		t.Errorf("related tables after reopen = %v, before close = %v", got, want)
	}
}

// A reopen reports how long it spent rebuilding the discovery indexes:
// on a lake a maintenance pass covered, more than nothing and no more
// than the whole recovery; on one no pass covered, nothing, since there
// is nothing to rebuild.
func TestReopenReportsIndexRebuild(t *testing.T) {
	ctx := context.Background()
	for _, maintained := range []bool{true, false} {
		dir := t.TempDir()
		l := openPersistent(t, dir)
		l.AddUser("dana", RoleDataScientist)
		spec := workload.DefaultSpec()
		spec.NumTables, spec.RowsPerTable = 6, 20
		for _, tb := range workload.GenerateCorpus(spec).Tables {
			if _, err := l.Ingest(ctx, "raw/"+tb.Name+".csv", []byte(table.ToCSV(tb)), "generator", "dana"); err != nil {
				t.Fatal(err)
			}
		}
		if maintained {
			if _, err := l.Maintain(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		re := openPersistent(t, dir)
		rs := re.MaintenanceStatus().Durability.Replay
		re.Close()
		switch {
		case rs == nil || rs.Duration <= 0:
			t.Errorf("maintained %v: replay stats %+v, want a positive duration", maintained, rs)
		case maintained && (rs.IndexRebuild <= 0 || rs.IndexRebuild > rs.Duration):
			t.Errorf("maintained lake: index rebuild %v of %v, want more than 0 and at most the whole", rs.IndexRebuild, rs.Duration)
		case !maintained && rs.IndexRebuild != 0:
			t.Errorf("unmaintained lake: index rebuild %v, want 0", rs.IndexRebuild)
		}
	}
}

// TestDurabilityQueryAppendsOneRecordPerStatement: on a SyncAlways lake,
// ten two-source queries append ten audit records, one per statement,
// not one per source; each statement shows up once in both datasets'
// trails.
func TestDurabilityQueryAppendsOneRecordPerStatement(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	b, err := persist.NewLocal(filepath.Join(dir, filestore.PersistDir), persist.WithSync(persist.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, WithPersistence(b))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AddUser("dana", RoleDataScientist)
	l.AddUser("gov", RoleGovernance)
	for _, p := range []string{"raw/orders.csv", "raw/refunds.csv"} {
		if _, err := l.Ingest(ctx, p, []byte("id,total\n1,10\n2,20\n"), "erp", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	appends := func() int {
		_, body := scrape(t, srv)
		for _, ln := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(ln, "golake_wal_appends_total "); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("golake_wal_appends_total %q: %v", v, err)
				}
				return n
			}
		}
		t.Fatal("no golake_wal_appends_total in the scrape")
		return 0
	}
	before := appends()
	for i := 0; i < 10; i++ {
		if _, err := l.QuerySQL(ctx, "dana", "SELECT id FROM orders, refunds"); err != nil {
			t.Fatal(err)
		}
	}
	if n := appends() - before; n != 10 {
		t.Errorf("ten two-source queries appended %d WAL records, want 10", n)
	}
	for _, p := range []string{"raw/orders.csv", "raw/refunds.csv"} {
		if evs, err := l.Audit(ctx, "gov", p); err != nil || len(evs) != 11 {
			t.Errorf("audit of %s = %d entries, %v; want the ingest and ten queries", p, len(evs), err)
		}
	}
}

// After a seeded mix of ingests (tables, documents, files, an
// unparseable CSV), evictions, maintenance passes, hard stops and clean
// reopens, the catalog lists exactly the placed datasets, and HANDLE's
// raw and curated zones partition them: a dataset a pass has covered is
// curated, one ingested since is raw.
func TestPersistCatalogAndZonesMatchPlacements(t *testing.T) {
	ctx := context.Background()
	mem := persist.NewMemory()
	open := func() *Lake {
		t.Helper()
		l, err := Open(t.TempDir(), WithPersistence(mem))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := open()
	l.AddUser("dana", RoleDataScientist)
	l.AddUser("carl", RoleCurator)
	bodies := []struct{ dir, ext, body string }{
		{"raw", "csv", "id,v\n1,2\n2,3\n"},
		{"docs", "json", `{"kind":"click","n":1}`},
		{"notes", "txt", "hello"},
		{"bad", "csv", "a,b\n1\n"},
	}
	zones := map[string]string{} // the model: live dataset -> zone
	rng := rand.New(rand.NewSource(42))
	counts := map[string]int{}
	for step := 0; step < 80; step++ {
		op := rng.Intn(10)
		switch {
		case op < 5 || len(zones) == 0:
			b := bodies[rng.Intn(len(bodies))]
			path := fmt.Sprintf("%s/%s%03d.%s", b.dir, b.dir[:1], step, b.ext)
			if _, err := l.Ingest(ctx, path, []byte(b.body), "src", "dana"); err != nil {
				t.Fatalf("step %d: ingest %s: %v", step, path, err)
			}
			zones[path] = ZoneRaw
			counts["ingest"]++
		case op < 7:
			live := make([]string, 0, len(zones))
			for p := range zones {
				live = append(live, p)
			}
			sort.Strings(live)
			path := live[rng.Intn(len(live))]
			if err := l.Evict(ctx, "carl", path); err != nil {
				t.Fatalf("step %d: evict %s: %v", step, path, err)
			}
			delete(zones, path)
			counts["evict"]++
		case op < 8:
			if _, err := l.Maintain(ctx); err != nil {
				t.Fatalf("step %d: maintain: %v", step, err)
			}
			for p := range zones {
				zones[p] = ZoneCurated
			}
			counts["maintain"]++
		case op < 9:
			l = open() // hard stop: the old lake is abandoned unclosed
			counts["hard stop"]++
		default:
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l = open()
			counts["clean reopen"]++
		}
		placed := []string{}
		for _, pl := range l.Poly.Placements() {
			placed = append(placed, pl.Path)
		}
		if got := l.Catalog.List(); !reflect.DeepEqual(got, placed) {
			t.Fatalf("step %d: catalog %v, placements %v", step, got, placed)
		}
		raw, curated := l.Handle.DataInZone(ZoneRaw), l.Handle.DataInZone(ZoneCurated)
		zoned := append(append([]string{}, raw...), curated...)
		sort.Strings(zoned)
		if !reflect.DeepEqual(zoned, placed) {
			t.Fatalf("step %d: raw %v + curated %v do not partition placements %v", step, raw, curated, placed)
		}
		for _, p := range placed {
			if z, err := l.Handle.Zone(p); err != nil || z != zones[p] {
				t.Fatalf("step %d: zone of %s = %q, %v; want %q", step, p, z, err, zones[p])
			}
		}
		if len(placed) != len(zones) {
			t.Fatalf("step %d: %d placed, model holds %d", step, len(placed), len(zones))
		}
	}
	l.Close()
	t.Logf("ops: %v", counts)
	for _, op := range []string{"ingest", "evict", "maintain", "hard stop", "clean reopen"} {
		if counts[op] == 0 {
			t.Errorf("the seeded mix never ran %s: %v", op, counts)
		}
	}
}

// A CSV with CRLF line ends, "" escapes and quoted line breaks is
// parsed again from its segment at reopen: on either backend the
// reopened lake holds the same raw bytes and the same cells, byte for
// byte, as the lake that ingested it.
func TestPersistQuotedCSVReadsBackAfterReopen(t *testing.T) {
	ctx := context.Background()
	const body = "id,note,city\r\n" +
		"1,\"say \"\"hi\"\"\",berlin\r\n" +
		"2,\"two\r\nlines\",\"\"\r\n" +
		"3,\"blank\n\nline\",\"paris, fr\"\r\n"
	wantNotes := []string{`say "hi"`, "two\nlines", "blank\n\nline"}
	for name, open := range map[string]func(t *testing.T) func() *Lake{
		"memory": func(t *testing.T) func() *Lake {
			mem := persist.NewMemory()
			return func() *Lake {
				l, err := Open(t.TempDir(), WithPersistence(mem))
				if err != nil {
					t.Fatal(err)
				}
				return l
			}
		},
		"local": func(t *testing.T) func() *Lake {
			dir := t.TempDir()
			return func() *Lake { return openPersistent(t, dir) }
		},
	} {
		t.Run(name, func(t *testing.T) {
			reopen := open(t)
			l := reopen()
			l.AddUser("dana", RoleDataScientist)
			if _, err := l.Ingest(ctx, "raw/notes.csv", []byte(body), "crm", "dana"); err != nil {
				t.Fatal(err)
			}
			live, err := l.Poly.Rel.Table("notes")
			if err != nil {
				t.Fatal(err)
			}
			c, err := live.Column("note")
			if err != nil || !reflect.DeepEqual(c.Cells, wantNotes) {
				t.Fatalf("live note cells = %q, %v; want %q", c.Cells, err, wantNotes)
			}
			want := table.ToCSV(live)
			// Hard stop: the ingest exists only as a WAL record and its
			// segment, so the reopen parses the body again.
			re := reopen()
			defer re.Close()
			raw, err := re.Poly.Files.Get("raw/notes.csv")
			if err != nil || string(raw) != body {
				t.Errorf("raw bytes after reopen = %q, %v; want %q", raw, err, body)
			}
			got, err := re.Poly.Rel.Table("notes")
			if err != nil {
				t.Fatal(err)
			}
			if table.ToCSV(got) != want {
				t.Errorf("cells after reopen = %q, want %q", table.ToCSV(got), want)
			}
		})
	}
}
