package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"golake/internal/explore"
	"golake/internal/maintain"
	"golake/internal/organize"
	"golake/internal/persist"
	"golake/internal/provenance"
	"golake/internal/storage/filestore"
	"golake/internal/table"
	"golake/lakeerr"
)

// The lake's durability rides on logical WAL records: each mutating
// operation appends one JSON record describing the operation (not the
// resulting state), and recovery replays them through the same code
// paths that executed them live. A table's bytes are written once, raw,
// as an immutable segment before the operation that adds the table
// commits; its WAL record and every later manifest carry only the
// segment's name. A periodic checkpoint installs a manifest of the full
// logical state and truncates the log; crash recovery is manifest + WAL
// tail, with duplicate records (a crash between manifest install and
// log truncation) skipped idempotently.
const (
	recUser     = "user"
	recToken    = "token"
	recIngest   = "ingest"
	recDerive   = "derive"
	recAudit    = "audit"
	recEvict    = "evict"
	recCoverage = "coverage"
)

// walRecord is one logical WAL entry. Kind selects which fields are
// meaningful.
type walRecord struct {
	Kind string `json:"kind"`
	// ingest / evict: the dataset path. ingest and derive name the
	// segment holding the raw bytes or the derived table's CSV.
	Path    string `json:"path,omitempty"`
	Segment string `json:"segment,omitempty"`
	Source  string `json:"source,omitempty"`
	User    string `json:"user,omitempty"`
	// user: registered name + role.
	Name string `json:"name,omitempty"`
	Role string `json:"role,omitempty"`
	// token: the sha256-hex digest of a bearer token registered for the
	// user in Name (the plaintext never reaches the log).
	Token string `json:"token,omitempty"`
	// derive: the activity and its inputs (Name is the output table
	// name).
	Activity string   `json:"activity,omitempty"`
	Inputs   []string `json:"inputs,omitempty"`
	// Data (ingest) and CSV (derive) hold the bytes inline in logs
	// written before segments; replay still reads them.
	Data []byte `json:"data,omitempty"`
	CSV  string `json:"csv,omitempty"`
	// audit: one provenance event.
	Event *provenance.Event `json:"event,omitempty"`
	// coverage: the committed maintenance state after a pass.
	Covered    []string `json:"covered,omitempty"`
	Promoted   []string `json:"promoted,omitempty"`
	Pending    []string `json:"pending,omitempty"`
	Generation uint64   `json:"generation,omitempty"`
}

// lakeSnapshot is the manifest a checkpoint installs: the full logical
// state, naming each table's segment instead of holding its bytes, so
// its cost is O(metadata). It names operations' inputs (the segments of
// raw bytes and derivation CSVs), not index structures: restore re-runs
// the ingest/derive pipelines and rebuilds the exploration indexes from
// the restored coverage, so the format survives index-implementation
// changes.
type lakeSnapshot struct {
	Version int               `json:"version"`
	Users   map[string]string `json:"users,omitempty"`
	// Tokens maps bearer-token digests to user names.
	Tokens   map[string]string `json:"tokens,omitempty"`
	Datasets []snapDataset     `json:"datasets,omitempty"`
	Derived  []snapDerived     `json:"derived,omitempty"`
	// Zones records non-raw zone assignments (path -> zone).
	Zones  map[string]string  `json:"zones,omitempty"`
	Events []provenance.Event `json:"events,omitempty"`
	// Covered + Maintained restore the planner so the first pass after
	// reopen is incremental.
	Covered       []string `json:"covered,omitempty"`
	Maintained    bool     `json:"maintained"`
	IngestGen     uint64   `json:"ingest_gen"`
	MaintainedGen uint64   `json:"maintained_gen"`
	Pending       []string `json:"pending,omitempty"`
}

// snapDataset and snapDerived name their segment; Data and CSV are the
// inline bytes of snapshots written before segments.
type snapDataset struct {
	Path    string `json:"path"`
	Source  string `json:"source,omitempty"`
	User    string `json:"user,omitempty"`
	Segment string `json:"segment,omitempty"`
	Data    []byte `json:"data,omitempty"`
}

type snapDerived struct {
	Name     string   `json:"name"`
	Activity string   `json:"activity,omitempty"`
	User     string   `json:"user,omitempty"`
	Inputs   []string `json:"inputs,omitempty"`
	Segment  string   `json:"segment,omitempty"`
	CSV      string   `json:"csv,omitempty"`
}

// ingestMeta / deriveMeta are the in-memory operation logs the manifest
// builder serializes (guarded by Lake.mu, appended in commit order).
type ingestMeta struct {
	path, source, user, segment string
}

type deriveMeta struct {
	name, activity, user, segment string
	inputs                        []string
}

// errLakeClosed is what a write to a closed persistent lake returns: it
// could not be logged, so it is not acknowledged.
var errLakeClosed = lakeerr.Wrap(lakeerr.CodeUnavailable, persist.ErrClosed)

// errDamaged marks a segment that is missing or fails its checksum.
var errDamaged = errors.New("segment missing or damaged")

// persister owns the lake's persistence backend: it serializes WAL
// appends against checkpoints (so a record can neither be lost between
// a manifest build and the log truncation nor duplicated without the
// replay noticing), triggers a checkpoint when the log outgrows the
// configured threshold, stores segments, and carries the durability
// status counters.
type persister struct {
	backend   persist.Backend
	threshold int64
	// lastSeg is the number of the last segment name handed out; restore
	// seeds it above every stored name, so no name is ever reused.
	lastSeg atomic.Uint64
	// closed is set under mu but read without it, so a segment put never
	// waits on another writer's WAL fsync to learn the lake is open.
	closed atomic.Bool

	mu           sync.Mutex
	walRecords   uint64
	lastSnapshot time.Time
	replay       *maintain.ReplayStats
	// manifestBytes is the size of the installed manifest (0 when none).
	manifestBytes int64

	// segMu guards the stored segments' sizes, the one record of what
	// the segments hold that status and the sweep read. It may be taken
	// while mu is held, never the other way round.
	segMu    sync.Mutex
	segs     map[string]int64
	segBytes int64
}

func (p *persister) warn(l *Lake, msg string, args ...any) {
	lg := l.logger
	if lg == nil {
		lg = slog.Default()
	}
	lg.Warn(msg, args...)
}

// writable reports whether the lake still accepts writes.
func (p *persister) writable() error {
	if p.closed.Load() {
		return errLakeClosed
	}
	return nil
}

// walRetry bounds the transient-failure retry loop of append: up to
// walRetries re-attempts, sleeping backoffDelay-style (base doubled per
// attempt, capped) between them. The delays are short because append
// runs inline on the mutating operation's goroutine.
const (
	walRetries   = 3
	walRetryBase = 2 * time.Millisecond
	walRetryMax  = 20 * time.Millisecond
)

// append frames one record onto the WAL and checkpoints if the log
// crossed the snapshot threshold. A failed append is retried with
// capped exponential backoff (the same shape as the maintenance
// scheduler's backoffDelay) — transient backend faults, the
// fail-every-Nth kind the chaos harness injects, recover without
// losing the record. Only after the retries run out does the failure
// degrade to a logged warning and a dropped-record counter bump — the
// in-memory lake stays correct, it just loses crash durability for
// that record. On a closed lake nothing is appended and the write is
// refused.
func (p *persister) append(l *Lake, rec *walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return lakeerr.Wrap(lakeerr.CodeInternal, fmt.Errorf("core: encode wal record: %w", err))
	}
	frame := persist.EncodeFrame(payload)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return errLakeClosed
	}
	start := time.Now()
	appendErr := p.backend.AppendWAL(frame)
	for attempt := 1; appendErr != nil && attempt <= walRetries; attempt++ {
		l.metrics.observeWALRetry()
		delay := walRetryBase << (attempt - 1)
		if delay > walRetryMax {
			delay = walRetryMax
		}
		time.Sleep(delay)
		appendErr = p.backend.AppendWAL(frame)
	}
	if appendErr != nil {
		l.metrics.observeWALDropped()
		p.warn(l, "persist: append wal record dropped after retries",
			"kind", rec.Kind, "retries", walRetries, "error", appendErr)
		return nil
	}
	l.metrics.observeWALAppend(len(frame), time.Since(start))
	p.walRecords++
	if p.threshold > 0 {
		if sz, err := p.backend.WALSize(); err == nil && sz >= p.threshold {
			if err := p.checkpointLocked(l); err != nil {
				p.warn(l, "persist: checkpoint", "error", err)
			}
		}
	}
	return nil
}

// putSegment stores data, framed so a checksum catches corruption, as a
// new segment and returns its name. Callers put before they take
// ingestMu, so concurrent writers overlap their segment I/O. A failed
// put is typed unavailable, and the caller has applied nothing.
func (p *persister) putSegment(l *Lake, data []byte) (string, error) {
	if err := p.writable(); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%016x", p.lastSeg.Add(1))
	frame := persist.EncodeFrame(data)
	start := time.Now()
	if err := p.backend.PutSegment(name, frame); err != nil {
		// A torn put may have left a prefix behind; what this misses, the
		// sweep at the next open removes.
		_ = p.backend.DeleteSegment(name)
		return "", lakeerr.Wrap(lakeerr.CodeUnavailable, fmt.Errorf("core: store segment: %w", err))
	}
	l.metrics.observeSegmentPut(time.Since(start))
	p.segMu.Lock()
	p.segs[name] = int64(len(frame))
	p.segBytes += int64(len(frame))
	l.metrics.setSegmentBytes(p.segBytes)
	p.segMu.Unlock()
	return name, nil
}

// deleteSegment removes a segment nothing names any more. A failure
// leaves an orphan, which the sweep at the next open removes.
func (p *persister) deleteSegment(l *Lake, name string) {
	if err := p.backend.DeleteSegment(name); err != nil {
		p.warn(l, "persist: delete segment", "segment", name, "error", err)
		return
	}
	p.segMu.Lock()
	p.segBytes -= p.segs[name]
	delete(p.segs, name)
	l.metrics.setSegmentBytes(p.segBytes)
	p.segMu.Unlock()
}

// readSegment returns a segment's payload. A segment that is missing, or
// is not exactly one intact frame, is errDamaged; any other failure is
// the backend's.
func (p *persister) readSegment(name string) ([]byte, error) {
	frame, err := p.backend.ReadSegment(name)
	if errors.Is(err, persist.ErrNoSegment) {
		return nil, fmt.Errorf("%w: %v", errDamaged, err)
	}
	if err != nil {
		return nil, lakeerr.Wrap(lakeerr.CodeUnavailable, err)
	}
	payloads, torn := persist.DecodeFrames(frame)
	if len(payloads) != 1 || torn != 0 {
		return nil, fmt.Errorf("%w: %s fails its checksum", errDamaged, name)
	}
	return payloads[0], nil
}

// reserve raises the segment counter to name's number, so no later put
// hands the name out again. Restore calls it for every name it meets —
// stored, or only named by the manifest or a WAL record, as a missing
// segment is — before the lake is shared.
func (p *persister) reserve(name string) {
	if n, err := strconv.ParseUint(name, 16, 64); err == nil && n > p.lastSeg.Load() {
		p.lastSeg.Store(n)
	}
}

// load returns the bytes a manifest entry or WAL record stands for: its
// segment's payload or, in the format before segments, its inline
// bytes, which it moves into a new segment named in *seg so the next
// checkpoint writes no inline bytes.
func (p *persister) load(l *Lake, seg *string, inline []byte) ([]byte, error) {
	if *seg != "" {
		p.reserve(*seg)
		return p.readSegment(*seg)
	}
	name, err := p.putSegment(l, inline)
	if err != nil {
		return nil, err
	}
	*seg = name
	return inline, nil
}

// checkpoint installs a manifest and truncates the WAL.
func (p *persister) checkpoint(l *Lake) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return persist.ErrClosed
	}
	return p.checkpointLocked(l)
}

// checkpointLocked requires p.mu. It may take l.mu (shared) and the
// component stores' own locks, but never ingestMu or maintMu — callers
// may hold either.
func (p *persister) checkpointLocked(l *Lake) error {
	start := time.Now()
	snap, retired := l.buildSnapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	if err := p.backend.Checkpoint(data); err != nil {
		return err
	}
	// The installed manifest no longer names the retired segments and
	// the log that did is truncated: only now may they go.
	for _, name := range retired {
		p.deleteSegment(l, name)
	}
	l.mu.Lock()
	l.retired = l.retired[len(retired):]
	l.mu.Unlock()
	p.manifestBytes = int64(len(data))
	p.walRecords = 0
	p.lastSnapshot = l.clock()
	l.metrics.observeCheckpoint(time.Since(start))
	if l.logger != nil {
		l.logger.Info("persist: checkpoint",
			"snapshot_bytes", len(data), "duration", time.Since(start))
	}
	return nil
}

// close flushes a final manifest and closes the backend. Idempotent.
func (p *persister) close(l *Lake) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil
	}
	cpErr := p.checkpointLocked(l)
	p.closed.Store(true)
	closeErr := p.backend.Close()
	if cpErr != nil {
		return cpErr
	}
	return closeErr
}

// status snapshots the durability counters for MaintenanceStatus. The
// segment figures come from the persister's own record, so a probe
// costs no directory walk.
func (p *persister) status() *maintain.DurabilityStatus {
	p.mu.Lock()
	st := &maintain.DurabilityStatus{
		Backend:       p.backend.Name(),
		WALRecords:    p.walRecords,
		SnapshotBytes: p.manifestBytes,
	}
	if !p.lastSnapshot.IsZero() {
		t := p.lastSnapshot
		st.LastSnapshot = &t
	}
	if p.replay != nil {
		cp := *p.replay
		st.Replay = &cp
	}
	p.mu.Unlock()
	p.segMu.Lock()
	st.Segments, st.SegmentBytes = len(p.segs), p.segBytes
	p.segMu.Unlock()
	st.SnapshotBytes += st.SegmentBytes
	if sz, err := p.backend.WALSize(); err == nil {
		st.WALBytes = sz
	}
	return st
}

// buildSnapshot serializes the lake's logical state, and returns the
// retired segments the manifest no longer names. It takes l.mu shared
// plus the component stores' own locks; never ingestMu or maintMu.
func (l *Lake) buildSnapshot() (*lakeSnapshot, []string) {
	l.mu.RLock()
	snap := &lakeSnapshot{
		Version:       2,
		Users:         make(map[string]string, len(l.users)),
		Tokens:        make(map[string]string, len(l.tokens)),
		Maintained:    l.maintained,
		IngestGen:     l.ingestGen,
		MaintainedGen: l.maintainedGen,
		Pending:       append([]string(nil), l.pendingPromote...),
		Zones:         map[string]string{},
	}
	for name, role := range l.users {
		snap.Users[name] = string(role)
	}
	for digest, user := range l.tokens {
		snap.Tokens[digest] = user
	}
	ingests := append([]ingestMeta(nil), l.ingestLog...)
	derives := append([]deriveMeta(nil), l.deriveLog...)
	retired := append([]string(nil), l.retired...)
	l.mu.RUnlock()
	for _, in := range ingests {
		snap.Datasets = append(snap.Datasets, snapDataset{Path: in.path, Source: in.source, User: in.user, Segment: in.segment})
		if z, err := l.Handle.Zone(in.path); err == nil && z != ZoneRaw {
			snap.Zones[in.path] = z
		}
	}
	for _, d := range derives {
		snap.Derived = append(snap.Derived, snapDerived{
			Name: d.name, Activity: d.activity, User: d.user,
			Inputs: append([]string(nil), d.inputs...), Segment: d.segment,
		})
	}
	snap.Events = l.Tracker.Events()
	snap.Covered = l.planner.Covered()
	return snap, retired
}

// restore replays manifest + WAL into a freshly assembled (still
// private) lake. A torn or corrupt WAL tail is dropped with a warning,
// never fatal; duplicate records left by a crash between manifest
// install and log truncation are skipped idempotently; a damaged
// segment is reported and its dataset not served. Only backend I/O
// failures and a corrupt manifest blob (impossible under the atomic
// checkpoint protocol) abort the open. Once the WAL is empty, segments
// nothing names are deleted.
func (p *persister) restore(l *Lake) error {
	start := time.Now()
	stored, err := p.backend.ListSegments()
	if err != nil {
		return lakeerr.Wrap(lakeerr.CodeUnavailable, err)
	}
	p.segs = make(map[string]int64, len(stored))
	for _, s := range stored {
		p.segs[s.Name] = s.Size
		p.segBytes += s.Size
		p.reserve(s.Name)
	}
	l.metrics.setSegmentBytes(p.segBytes)
	snapBytes, err := p.backend.ReadSnapshot()
	if err != nil {
		return lakeerr.Wrap(lakeerr.CodeUnavailable, err)
	}
	p.manifestBytes = int64(len(snapBytes))
	rs := maintain.ReplayStats{}
	snapMaxSeq := 0
	// named holds the segments the installed manifest names; inline is
	// set when it holds table bytes in the format before segments.
	named := map[string]bool{}
	inline := false
	if len(snapBytes) > 0 {
		var snap lakeSnapshot
		if err := json.Unmarshal(snapBytes, &snap); err != nil {
			return lakeerr.Errorf(lakeerr.CodeInternal, "core: corrupt snapshot: %v", err)
		}
		for _, d := range snap.Datasets {
			named[d.Segment] = true
			inline = inline || d.Segment == ""
		}
		for _, d := range snap.Derived {
			named[d.Segment] = true
			inline = inline || d.Segment == ""
		}
		if snapMaxSeq, err = l.applySnapshot(p, &snap, &rs); err != nil {
			return err
		}
	}
	walBytes, err := p.backend.ReadWAL()
	if err != nil {
		return lakeerr.Wrap(lakeerr.CodeUnavailable, err)
	}
	frames, torn := persist.DecodeFrames(walBytes)
	rs.TornBytes = torn
	if torn > 0 {
		p.warn(l, "persist: dropped torn wal tail", "bytes", torn)
	}
	for _, payload := range frames {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A framed-but-unparseable record: count it skipped instead of
			// failing the open; the frame checksum says the bytes are what
			// was written, so this is a version skew, not corruption.
			p.warn(l, "persist: undecodable wal record", "error", err)
			rs.WALRecords++
			rs.WALSkipped++
			continue
		}
		rs.WALRecords++
		applied, err := l.applyRecord(p, &rec, snapMaxSeq, &rs)
		if err != nil {
			return err
		}
		if !applied {
			rs.WALSkipped++
		}
	}
	l.rebuildIndexesFromCoverage()
	if len(snapBytes) > 0 || len(walBytes) > 0 {
		rs.Duration = time.Since(start)
		p.mu.Lock()
		p.replay = &rs
		p.mu.Unlock()
		l.metrics.observeReplay(rs)
		if l.logger != nil {
			l.logger.Info("persist: replayed",
				"snapshot_datasets", rs.SnapshotDatasets,
				"wal_records", rs.WALRecords,
				"wal_skipped", rs.WALSkipped,
				"torn_bytes", rs.TornBytes,
				"damaged_segments", rs.DamagedSegments,
				"duration", rs.Duration)
		}
	}
	// Compact what was just replayed so the next open starts from a
	// manifest instead of re-replaying an ever-growing log; a torn tail
	// goes with it, and so do the inline bytes replay moved into new
	// segments.
	walEmpty := len(walBytes) == 0
	if !walEmpty || inline {
		if err := p.checkpoint(l); err != nil {
			p.warn(l, "persist: post-replay checkpoint", "error", err)
		} else {
			walEmpty = true
		}
	}
	if walEmpty {
		p.sweep(l, named)
	}
	return nil
}

// sweep deletes every stored segment that neither the manifest read at
// open (named) nor the restored lake names: orphans of a crash between
// a segment put and its WAL record, or of a delete that did not finish.
// It runs only with the WAL empty, so no record can name one.
func (p *persister) sweep(l *Lake, named map[string]bool) {
	for _, in := range l.ingestLog {
		named[in.segment] = true
	}
	for _, d := range l.deriveLog {
		named[d.segment] = true
	}
	var orphans []string
	p.segMu.Lock()
	for name := range p.segs {
		if !named[name] {
			orphans = append(orphans, name)
		}
	}
	p.segMu.Unlock()
	for _, name := range orphans {
		p.deleteSegment(l, name)
	}
	if len(orphans) > 0 {
		p.warn(l, "persist: deleted orphan segments", "count", len(orphans))
	}
}

// applySnapshot restores the serialized logical state; returns the
// highest provenance sequence number it injected so WAL audit records
// already contained in the snapshot can be recognized as duplicates.
func (l *Lake) applySnapshot(p *persister, snap *lakeSnapshot, rs *maintain.ReplayStats) (int, error) {
	for name, role := range snap.Users {
		l.users[name] = Role(role)
	}
	for digest, user := range snap.Tokens {
		l.tokens[digest] = user
	}
	for _, d := range snap.Datasets {
		applied, err := l.replayIngest(p, ingestMeta{path: d.Path, source: d.Source, user: d.User, segment: d.Segment}, d.Data, rs)
		if err != nil {
			return 0, err
		}
		if applied {
			rs.SnapshotDatasets++
		}
	}
	for _, d := range snap.Derived {
		dm := deriveMeta{name: d.Name, activity: d.Activity, user: d.User, segment: d.Segment, inputs: d.Inputs}
		if _, err := l.replayDerive(p, dm, d.CSV, rs); err != nil {
			return 0, err
		}
	}
	for path, zone := range snap.Zones {
		_ = l.Handle.MoveZone(path, zone)
	}
	maxSeq := 0
	for _, ev := range snap.Events {
		l.Tracker.Inject(ev)
		if ev.Seq > maxSeq {
			maxSeq = ev.Seq
		}
	}
	l.planner.Restore(snap.Covered, snap.Maintained)
	l.maintained = snap.Maintained
	l.ingestGen = snap.IngestGen
	l.maintainedGen = snap.MaintainedGen
	l.pendingPromote = append([]string(nil), snap.Pending...)
	return maxSeq, nil
}

// applyRecord replays one WAL record; the false return marks a skip
// (a duplicate of snapshot state or a dataset that could not be
// restored), not a failure. Only backend I/O fails it.
func (l *Lake) applyRecord(p *persister, rec *walRecord, snapMaxSeq int, rs *maintain.ReplayStats) (bool, error) {
	switch rec.Kind {
	case recUser:
		l.users[rec.Name] = Role(rec.Role)
		return true, nil
	case recToken:
		l.tokens[rec.Token] = rec.Name
		return true, nil
	case recIngest:
		return l.replayIngest(p, ingestMeta{path: rec.Path, source: rec.Source, user: rec.User, segment: rec.Segment}, rec.Data, rs)
	case recDerive:
		dm := deriveMeta{name: rec.Name, activity: rec.Activity, user: rec.User, segment: rec.Segment, inputs: rec.Inputs}
		return l.replayDerive(p, dm, rec.CSV, rs)
	case recAudit:
		if rec.Event == nil {
			return false, nil
		}
		if rec.Event.Seq <= snapMaxSeq {
			return false, nil // the snapshot's event log already has it
		}
		l.Tracker.Inject(*rec.Event)
		return true, nil
	case recEvict:
		if err := l.evictLocked(rec.Path); err != nil {
			if lakeerr.CodeOf(err) != lakeerr.CodeNotFound {
				p.warn(l, "persist: replay evict", "path", rec.Path, "error", err)
			}
			return false, nil
		}
		return true, nil
	case recCoverage:
		l.planner.Restore(rec.Covered, true)
		for _, path := range rec.Promoted {
			_ = l.Handle.MoveZone(path, ZoneCurated)
		}
		l.maintained = true
		l.maintainedGen = rec.Generation
		l.pendingPromote = append([]string(nil), rec.Pending...)
		return true, nil
	default:
		p.warn(l, "persist: unknown wal record kind", "kind", rec.Kind)
		return false, nil
	}
}

// replayIngest restores one dataset through the live pipeline, without
// re-recording provenance (audit records replay separately) or
// re-appending to the WAL; restore runs before the lake is shared, so
// the ingest lock discipline is not needed. A dataset whose segment is
// damaged is counted and not served, but keeps its ingest-log entry:
// the next manifest still names the segment, so its bytes stay for
// inspection instead of being swept.
func (l *Lake) replayIngest(p *persister, in ingestMeta, inline []byte, rs *maintain.ReplayStats) (bool, error) {
	data, err := p.load(l, &in.segment, inline)
	if errors.Is(err, errDamaged) {
		rs.DamagedSegments++
		p.warn(l, "persist: dataset not served", "path", in.path, "error", err)
		l.ingestLog = append(l.ingestLog, in)
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if _, err := l.ingestLocked(in.path, data, in.source, in.user, in.segment); err != nil {
		if lakeerr.CodeOf(err) != lakeerr.CodeConflict { // a conflict is state the snapshot restored
			p.warn(l, "persist: replay ingest", "path", in.path, "error", err)
		}
		return false, nil
	}
	return true, nil
}

// replayDerive restores one derived table from its CSV, as replayIngest
// restores a dataset.
func (l *Lake) replayDerive(p *persister, d deriveMeta, inline string, rs *maintain.ReplayStats) (bool, error) {
	data, err := p.load(l, &d.segment, []byte(inline))
	if errors.Is(err, errDamaged) {
		rs.DamagedSegments++
		p.warn(l, "persist: derived table not served", "name", d.name, "error", err)
		l.deriveLog = append(l.deriveLog, d)
		return false, nil
	}
	if err != nil {
		return false, err
	}
	t, err := table.ParseCSV(d.name, string(data))
	if err == nil {
		err = l.deriveLocked(d.activity, d.user, d.inputs, t, d.segment)
	}
	if err != nil {
		if lakeerr.CodeOf(err) != lakeerr.CodeConflict {
			p.warn(l, "persist: replay derive", "name", d.name, "error", err)
		}
		return false, nil
	}
	return true, nil
}

// rebuildIndexesFromCoverage reconstructs the exploration indexes and
// the DS-kNN categorizer over the restored planner coverage, so a
// reopened, previously maintained lake answers Explore immediately and
// its first scheduled pass plans incrementally. Runs at the end of
// restore — one code path whether the coverage came from the snapshot
// or from a WAL coverage record. DS-kNN category numbering may differ
// from the original pass order (tables arrive sorted here); the next
// full rebuild squares that up.
func (l *Lake) rebuildIndexesFromCoverage() {
	if !l.maintained {
		return
	}
	var tables []*table.Table
	covered := make(map[string]bool)
	for _, name := range l.planner.Covered() {
		covered[name] = true
		if t, err := l.Poly.Rel.Table(name); err == nil {
			tables = append(tables, t)
		}
	}
	ex := explore.NewExplorer()
	if err := ex.Index(tables); err == nil {
		l.Explorer = ex
	}
	knn := organize.NewDSKNN()
	for _, t := range tables {
		knn.Add(t)
	}
	l.knn = knn
	// A derivation that landed after the last committed pass has no
	// coverage; live operation would have left a pending ForceFull, which
	// planner.Restore cleared — reinstate it.
	l.mu.RLock()
	derives := append([]deriveMeta(nil), l.deriveLog...)
	l.mu.RUnlock()
	for _, d := range derives {
		if !covered[d.name] {
			l.planner.ForceFull("derive")
			break
		}
	}
}

// putSegment stores a table's bytes as a new segment before the
// operation that adds the table commits; "" on a lake without
// persistence.
func (l *Lake) putSegment(data []byte) (string, error) {
	if l.pers == nil {
		return "", nil
	}
	return l.pers.putSegment(l, data)
}

// segmentReader reads an ingested object's raw bytes back from its
// segment; nil without persistence, where the file store keeps them.
func (l *Lake) segmentReader(seg string) filestore.ReadFunc {
	if l.pers == nil {
		return nil
	}
	return func() ([]byte, error) { return l.pers.readSegment(seg) }
}

// dropSegment deletes the segment of an operation that failed before it
// was logged.
func (l *Lake) dropSegment(name string) {
	if l.pers != nil && name != "" {
		l.pers.deleteSegment(l, name)
	}
}

// writable reports whether a persistent lake still accepts writes:
// after Close a write could not be logged, so it is refused as
// unavailable instead of acknowledged and lost.
func (l *Lake) writable() error {
	if l.pers == nil {
		return nil
	}
	return l.pers.writable()
}

// persistRecord appends one WAL record when persistence is configured.
// Call sites sit outside l.mu and the component stores' locks (the
// record may trigger a checkpoint); ingestMu/maintMu are safe to hold.
func (l *Lake) persistRecord(rec *walRecord) error {
	if l.pers == nil {
		return nil
	}
	return l.pers.append(l, rec)
}

// persistCoverage appends the committed maintenance state after a
// successful pass; maintMu must be held (it serializes passes, so the
// coverage written is the coverage committed).
func (l *Lake) persistCoverage() {
	if l.pers == nil {
		return
	}
	l.mu.RLock()
	gen := l.maintainedGen
	pending := append([]string(nil), l.pendingPromote...)
	l.mu.RUnlock()
	// Close holds maintMu, so a pass cannot race it; a pass run after
	// Close has nothing to log to.
	_ = l.persistRecord(&walRecord{
		Kind:       recCoverage,
		Covered:    l.planner.Covered(),
		Promoted:   l.Handle.DataInZone(ZoneCurated),
		Pending:    pending,
		Generation: gen,
	})
}
