package core

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"golake/internal/explore"
	"golake/internal/maintain"
	"golake/internal/organize"
	"golake/internal/persist"
	"golake/internal/provenance"
	"golake/internal/table"
	"golake/lakeerr"
)

// The lake's durability rides on logical WAL records: each mutating
// operation appends one JSON record describing the operation (not the
// resulting state), and recovery replays them through the same code
// paths that executed them live. A periodic snapshot of the full
// logical state truncates the log; crash recovery is snapshot + WAL
// tail, with duplicate records (a crash between snapshot install and
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
	// ingest / evict: the dataset path; ingest carries the raw bytes.
	Path   string `json:"path,omitempty"`
	Data   []byte `json:"data,omitempty"`
	Source string `json:"source,omitempty"`
	User   string `json:"user,omitempty"`
	// user: registered name + role.
	Name string `json:"name,omitempty"`
	Role string `json:"role,omitempty"`
	// token: the sha256-hex digest of a bearer token registered for the
	// user in Name (the plaintext never reaches the log).
	Token string `json:"token,omitempty"`
	// derive: the activity, its inputs, and the output table as CSV
	// (Name is the output table name).
	Activity string   `json:"activity,omitempty"`
	Inputs   []string `json:"inputs,omitempty"`
	CSV      string   `json:"csv,omitempty"`
	// audit: one provenance event.
	Event *provenance.Event `json:"event,omitempty"`
	// coverage: the committed maintenance state after a pass.
	Covered    []string `json:"covered,omitempty"`
	Promoted   []string `json:"promoted,omitempty"`
	Pending    []string `json:"pending,omitempty"`
	Generation uint64   `json:"generation,omitempty"`
}

// lakeSnapshot is the full logical state a checkpoint serializes. It
// stores operations' inputs (raw bytes, derivation CSVs), not index
// structures: restore re-runs the ingest/derive pipelines and rebuilds
// the exploration indexes from the restored coverage, so the snapshot
// format survives index-implementation changes.
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

type snapDataset struct {
	Path   string `json:"path"`
	Source string `json:"source,omitempty"`
	User   string `json:"user,omitempty"`
	Data   []byte `json:"data"`
}

type snapDerived struct {
	Name     string   `json:"name"`
	Activity string   `json:"activity,omitempty"`
	User     string   `json:"user,omitempty"`
	Inputs   []string `json:"inputs,omitempty"`
	CSV      string   `json:"csv"`
}

// ingestMeta / deriveMeta are the in-memory operation logs the snapshot
// builder serializes (guarded by Lake.mu, appended in commit order).
type ingestMeta struct {
	path, source, user string
}

type deriveMeta struct {
	name, activity, user string
	inputs               []string
}

// persister owns the lake's persistence backend: it serializes WAL
// appends against checkpoints (so a record can neither be lost between
// a snapshot build and the log truncation nor duplicated without the
// replay noticing), triggers a checkpoint when the log outgrows the
// configured threshold, and carries the durability status counters.
type persister struct {
	backend   persist.Backend
	threshold int64

	mu           sync.Mutex
	closed       bool
	walRecords   uint64
	lastSnapshot time.Time
	replay       *maintain.ReplayStats
}

func (p *persister) warn(l *Lake, msg string, args ...any) {
	lg := l.logger
	if lg == nil {
		lg = slog.Default()
	}
	lg.Warn(msg, args...)
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
// that record.
func (p *persister) append(l *Lake, rec *walRecord) {
	payload, err := json.Marshal(rec)
	if err != nil {
		p.warn(l, "persist: encode wal record", "kind", rec.Kind, "error", err)
		return
	}
	frame := persist.EncodeFrame(payload)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
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
		return
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
}

// checkpoint builds and installs a snapshot, truncating the WAL.
func (p *persister) checkpoint(l *Lake) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return persist.ErrClosed
	}
	return p.checkpointLocked(l)
}

// checkpointLocked requires p.mu. It may take l.mu (shared) and the
// component stores' own locks, but never ingestMu or maintMu — callers
// may hold either.
func (p *persister) checkpointLocked(l *Lake) error {
	start := time.Now()
	snap, err := l.buildSnapshot()
	if err != nil {
		return err
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	if err := p.backend.Checkpoint(data); err != nil {
		return err
	}
	p.walRecords = 0
	p.lastSnapshot = l.clock()
	l.metrics.observeCheckpoint(time.Since(start))
	if l.logger != nil {
		l.logger.Info("persist: checkpoint",
			"snapshot_bytes", len(data), "duration", time.Since(start))
	}
	return nil
}

// close flushes a final snapshot and closes the backend. Idempotent.
func (p *persister) close(l *Lake) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	cpErr := p.checkpointLocked(l)
	p.closed = true
	closeErr := p.backend.Close()
	if cpErr != nil {
		return cpErr
	}
	return closeErr
}

// status snapshots the durability counters for MaintenanceStatus.
func (p *persister) status() *maintain.DurabilityStatus {
	p.mu.Lock()
	st := &maintain.DurabilityStatus{
		Backend:    p.backend.Name(),
		WALRecords: p.walRecords,
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
	if sz, err := p.backend.WALSize(); err == nil {
		st.WALBytes = sz
	}
	if sz, err := p.backend.SnapshotSize(); err == nil {
		st.SnapshotBytes = sz
	}
	return st
}

// buildSnapshot serializes the lake's logical state. It takes l.mu
// shared plus the component stores' own locks; never ingestMu or
// maintMu.
func (l *Lake) buildSnapshot() (*lakeSnapshot, error) {
	l.mu.RLock()
	snap := &lakeSnapshot{
		Version:       1,
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
	l.mu.RUnlock()
	for _, in := range ingests {
		data, err := l.Poly.Files.Get(in.path)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot %s: %w", in.path, err)
		}
		snap.Datasets = append(snap.Datasets, snapDataset{Path: in.path, Source: in.source, User: in.user, Data: data})
		if z, err := l.Handle.Zone(in.path); err == nil && z != ZoneRaw {
			snap.Zones[in.path] = z
		}
	}
	for _, d := range derives {
		t, err := l.Poly.Rel.Table(d.name)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot derived %s: %w", d.name, err)
		}
		snap.Derived = append(snap.Derived, snapDerived{
			Name: d.name, Activity: d.activity, User: d.user,
			Inputs: append([]string(nil), d.inputs...), CSV: table.ToCSV(t),
		})
	}
	snap.Events = l.Tracker.Events()
	snap.Covered = l.planner.Covered()
	return snap, nil
}

// restore replays snapshot + WAL into a freshly assembled (still
// private) lake. A torn or corrupt WAL tail is dropped with a warning,
// never fatal; duplicate records left by a crash between snapshot
// install and log truncation are skipped idempotently. Only backend I/O
// failures and a corrupt snapshot blob (impossible under the atomic
// checkpoint protocol) abort the open.
func (p *persister) restore(l *Lake) error {
	start := time.Now()
	snapBytes, err := p.backend.ReadSnapshot()
	if err != nil {
		return lakeerr.Wrap(lakeerr.CodeUnavailable, err)
	}
	rs := maintain.ReplayStats{}
	snapMaxSeq := 0
	replayed := false
	if len(snapBytes) > 0 {
		replayed = true
		var snap lakeSnapshot
		if err := json.Unmarshal(snapBytes, &snap); err != nil {
			return lakeerr.Errorf(lakeerr.CodeInternal, "core: corrupt snapshot: %v", err)
		}
		snapMaxSeq = l.applySnapshot(p, &snap, &rs)
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
	if len(frames) > 0 {
		replayed = true
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
		if !l.applyRecord(p, &rec, snapMaxSeq) {
			rs.WALSkipped++
		}
	}
	l.rebuildIndexesFromCoverage()
	if replayed {
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
				"duration", rs.Duration)
		}
	}
	// Compact what was just replayed so the next open starts from a
	// snapshot instead of re-replaying an ever-growing log.
	if len(frames) > 0 {
		if err := p.checkpoint(l); err != nil {
			p.warn(l, "persist: post-replay checkpoint", "error", err)
		}
	}
	return nil
}

// applySnapshot restores the serialized logical state; returns the
// highest provenance sequence number it injected so WAL audit records
// already contained in the snapshot can be recognized as duplicates.
func (l *Lake) applySnapshot(p *persister, snap *lakeSnapshot, rs *maintain.ReplayStats) int {
	for name, role := range snap.Users {
		l.users[name] = Role(role)
	}
	for digest, user := range snap.Tokens {
		l.tokens[digest] = user
	}
	for _, d := range snap.Datasets {
		if _, err := l.ingestApply(d.Path, d.Data, d.Source, d.User); err != nil {
			p.warn(l, "persist: replay snapshot dataset", "path", d.Path, "error", err)
			continue
		}
		rs.SnapshotDatasets++
	}
	for _, d := range snap.Derived {
		if err := l.deriveApply(d.Name, d.Activity, d.User, d.Inputs, d.CSV); err != nil {
			p.warn(l, "persist: replay snapshot derived", "name", d.Name, "error", err)
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
	return maxSeq
}

// applyRecord replays one WAL record; the false return marks an
// idempotent skip (duplicate of snapshot state), not a failure.
func (l *Lake) applyRecord(p *persister, rec *walRecord, snapMaxSeq int) bool {
	switch rec.Kind {
	case recUser:
		l.users[rec.Name] = Role(rec.Role)
		return true
	case recToken:
		l.tokens[rec.Token] = rec.Name
		return true
	case recIngest:
		if _, err := l.ingestApply(rec.Path, rec.Data, rec.Source, rec.User); err != nil {
			if lakeerr.CodeOf(err) == lakeerr.CodeConflict {
				return false // already restored by the snapshot
			}
			p.warn(l, "persist: replay ingest", "path", rec.Path, "error", err)
			return false
		}
		return true
	case recDerive:
		if err := l.deriveApply(rec.Name, rec.Activity, rec.User, rec.Inputs, rec.CSV); err != nil {
			if lakeerr.CodeOf(err) == lakeerr.CodeConflict {
				return false
			}
			p.warn(l, "persist: replay derive", "name", rec.Name, "error", err)
			return false
		}
		return true
	case recAudit:
		if rec.Event == nil {
			return false
		}
		if rec.Event.Seq <= snapMaxSeq {
			return false // the snapshot's event log already has it
		}
		l.Tracker.Inject(*rec.Event)
		return true
	case recEvict:
		if err := l.evictApply(rec.Path); err != nil {
			if lakeerr.CodeOf(err) == lakeerr.CodeNotFound {
				return false
			}
			p.warn(l, "persist: replay evict", "path", rec.Path, "error", err)
			return false
		}
		return true
	case recCoverage:
		l.planner.Restore(rec.Covered, true)
		for _, path := range rec.Promoted {
			_ = l.Handle.MoveZone(path, ZoneCurated)
		}
		l.maintained = true
		l.maintainedGen = rec.Generation
		l.pendingPromote = append([]string(nil), rec.Pending...)
		return true
	default:
		p.warn(l, "persist: unknown wal record kind", "kind", rec.Kind)
		return false
	}
}

// ingestApply replays one ingest through the live pipeline without
// re-recording provenance (audit records replay separately) or
// re-appending to the WAL. Called only during restore, before the lake
// is shared, so the ingest lock discipline is not needed.
func (l *Lake) ingestApply(path string, data []byte, source, user string) (*IngestResult, error) {
	return l.ingestLocked(path, data, source, user)
}

// deriveApply replays one derivation from its serialized CSV.
func (l *Lake) deriveApply(name, activity, user string, inputs []string, csv string) error {
	t, err := table.ParseCSV(name, csv)
	if err != nil {
		return lakeerr.Errorf(lakeerr.CodeInternal, "core: replay derived table %s: %v", name, err)
	}
	return l.deriveLocked(activity, user, inputs, t)
}

// evictApply replays one eviction.
func (l *Lake) evictApply(path string) error {
	return l.evictLocked(path)
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

// persistRecord appends one WAL record when persistence is configured.
// Call sites sit outside l.mu and the component stores' locks (the
// record may trigger a snapshot build); ingestMu/maintMu are safe to
// hold.
func (l *Lake) persistRecord(rec *walRecord) {
	if l.pers == nil {
		return
	}
	l.pers.append(l, rec)
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
	l.persistRecord(&walRecord{
		Kind:       recCoverage,
		Covered:    l.planner.Covered(),
		Promoted:   l.Handle.DataInZone(ZoneCurated),
		Pending:    pending,
		Generation: gen,
	})
}
