package core

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
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
	"golake/internal/storage/polystore"
	"golake/internal/table"
	"golake/lakeerr"
)

// The lake's durability rides on logical WAL records: each mutating
// operation appends one JSON record describing the operation (not the
// resulting state) together with the provenance events it captured, and
// recovery replays them through the same code paths that executed them
// live. A table's bytes are written once, raw, as an immutable segment
// before the operation that adds the table commits; its WAL record and
// every later manifest carry only the segment's name. A periodic
// checkpoint installs a manifest of the full logical state and
// truncates the log; crash recovery is manifest + WAL tail, with
// duplicate records (a crash between manifest install and log
// truncation) skipped idempotently.
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
// meaningful. It is the one description of a write: the lake's entries
// and manifests keep an ingest's or derive's record, as entry leaves it.
type walRecord struct {
	Kind string `json:"kind,omitempty"`
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
	// Event is an ingest's or evict's provenance event, or an audit
	// record's: a query's, or, in logs written before writes carried
	// their events, any write's. Events are a derive's, in capture order.
	Event  *provenance.Event  `json:"event,omitempty"`
	Events []provenance.Event `json:"events,omitempty"`
	// coverage: the committed maintenance state after a pass.
	Covered    []string `json:"covered,omitempty"`
	Promoted   []string `json:"promoted,omitempty"`
	Pending    []string `json:"pending,omitempty"`
	Generation uint64   `json:"generation,omitempty"`
}

// entryKey names one of the lake's entries by its record's Path and
// Name: an ingest by its path, a derive (which has no path) by its name.
type entryKey struct{ path, name string }

// claim is the model-store name an entry claims: a derive's name, or
// the basename its ingest reserved.
func (k entryKey) claim() string {
	if k.path == "" {
		return k.name
	}
	return polystore.DerivedName(k.path)
}

// entry is an ingest or derive record as the lake keeps it, without its
// kind (its key says that), events (the tracker keeps them) or inline
// bytes (replay moved them into its segment), and its commit ordinal.
type entry struct {
	walRecord
	ord uint64
}

// putEntry makes rec the entry at its key, in place of the one there
// and of every damaged entry that claims rec's name, of either kind: it
// scans only the damaged entries. A replaced entry's segment is retired
// unless rec names it too. l.mu must be held, or the lake not shared.
func (l *Lake) putEntry(rec *walRecord, damaged bool) {
	k := entryKey{rec.Path, rec.Name}
	name := k.claim()
	kept := l.unserved[:0]
	for _, d := range l.unserved {
		if d.claim() == name {
			l.dropEntry(d, rec.Segment)
		} else {
			kept = append(kept, d)
		}
	}
	if damaged {
		kept = append(kept, k)
	}
	l.unserved = kept
	l.commits++
	e := entry{*rec, l.commits}
	e.Kind, e.Event, e.Events, e.Data, e.CSV = "", nil, nil, nil, ""
	l.entries[k] = e
}

// dropEntry deletes the entry at k and retires its segment unless that
// is keep. l.mu must be held, or the lake not shared.
func (l *Lake) dropEntry(k entryKey, keep string) {
	if seg := l.entries[k].Segment; seg != "" && seg != keep {
		l.retired = append(l.retired, seg)
	}
	delete(l.entries, k)
}

// events returns the provenance events the record carries.
func (r *walRecord) events() []provenance.Event {
	if r.Event != nil {
		return append(r.Events, *r.Event)
	}
	return r.Events
}

// stamp numbers the record's events on from the tracker's last
// sequence number, in the order events lists them, and dates them now.
func (r *walRecord) stamp(l *Lake) {
	if r.Event == nil && len(r.Events) == 0 {
		return
	}
	seq, at := l.Tracker.LastSeq(), l.clock()
	for i := range r.Events {
		seq++
		r.Events[i].Seq, r.Events[i].At = seq, at
	}
	if r.Event != nil {
		r.Event.Seq, r.Event.At = seq+1, at
	}
}

// lakeSnapshot is the manifest a checkpoint installs: the full logical
// state, naming each table's segment instead of holding its bytes, so
// its cost is O(metadata). It names operations' inputs (the segments of
// raw bytes and derivation CSVs), not index structures: restore re-runs
// the ingest/derive pipelines and rebuilds the exploration indexes from
// the restored coverage, so the format survives index-implementation
// changes. Datasets and Derived are the lake's entries, split by kind,
// each list in commit order; before segments, they held inline bytes
// (Data, CSV).
type lakeSnapshot struct {
	Version int               `json:"version"`
	Users   map[string]string `json:"users,omitempty"`
	// Tokens maps bearer-token digests to user names.
	Tokens   map[string]string `json:"tokens,omitempty"`
	Datasets []walRecord       `json:"datasets,omitempty"`
	Derived  []walRecord       `json:"derived,omitempty"`
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

// errLakeClosed is what a write to a closed persistent lake returns: it
// could not be logged, so it is not acknowledged.
var errLakeClosed = lakeerr.Wrap(lakeerr.CodeUnavailable, persist.ErrClosed)

// errDamaged marks a segment that is missing or fails its checksum.
var errDamaged = errors.New("segment missing or damaged")

// errWALDropped marks a record that append gave up on after its
// retries.
var errWALDropped = errors.New("core: wal record dropped after retries")

// persister owns the lake's persistence backend: it serializes WAL
// appends against checkpoints (so a record can neither be lost between
// a manifest build and the log truncation nor duplicated without the
// replay noticing), triggers a checkpoint when the log outgrows the
// configured threshold, stores segments, and carries the durability
// status counters.
type persister struct {
	backend   persist.Backend
	threshold int64
	// sleep waits out an append's retry backoff (time.Sleep; tests hold
	// a writer inside its backoff through it).
	sleep func(time.Duration)
	// lastSeg is the number of the last segment name handed out; restore
	// seeds it above every stored name, so no name is ever reused.
	lastSeg atomic.Uint64
	// closed is set under mu but read without it, so a segment put never
	// waits on another writer's WAL fsync to learn the lake is open.
	closed atomic.Bool
	// degraded is set when a record is dropped after its retries and
	// cleared when the next append lands.
	degraded atomic.Bool

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

// ready reports whether the lake takes writes. Open returns only once
// replay is done, so a persistent lake is ready unless it is closed or
// its WAL is degraded: a record was dropped after its retries and no
// append has landed since. Either is unavailable. A lake without
// persistence is always ready.
func (l *Lake) ready() error {
	if l.pers == nil {
		return nil
	}
	if err := l.pers.writable(); err != nil {
		return err
	}
	if l.pers.degraded.Load() {
		return lakeerr.Wrap(lakeerr.CodeUnavailable, errWALDropped)
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

// append logs one record and publishes the write it carries. Each
// attempt, under p.mu, numbers the record's events, frames the record
// onto the WAL and, once it lands, publishes: apply (if any) runs and
// the events are recorded, before any checkpoint the append triggers.
// A failed append is retried with capped exponential backoff (the same
// shape as the maintenance scheduler's backoffDelay) — transient
// backend faults, the fail-every-Nth kind the chaos harness injects,
// recover without losing the record. The backoff sleeps outside p.mu,
// so other appends, a checkpoint and status probes proceed meanwhile.
// Once the retries run out the record is dropped: a logged warning, a
// dropped-record counter bump, the WAL marked degraded until the next
// append lands, and an unavailable errWALDropped. A dropped record has
// published nothing and used no sequence number. On a closed lake
// nothing is appended or published and the write is refused.
func (p *persister) append(l *Lake, rec *walRecord, apply func()) error {
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			l.metrics.observeWALRetry()
			delay := walRetryBase << (attempt - 1)
			if delay > walRetryMax {
				delay = walRetryMax
			}
			p.sleep(delay)
		}
		if err = p.tryAppend(l, rec, apply); err == nil {
			return nil
		}
		// A typed error (a closed lake, an unencodable record) is final;
		// a backend's is retried.
		var final *lakeerr.Error
		if errors.As(err, &final) {
			return err
		}
		if attempt == walRetries {
			break
		}
	}
	p.degraded.Store(true)
	l.metrics.observeWALDropped()
	p.warn(l, "persist: append wal record dropped after retries",
		"kind", rec.Kind, "retries", walRetries, "error", err)
	return lakeerr.Wrap(lakeerr.CodeUnavailable, fmt.Errorf("%w: %v", errWALDropped, err))
}

// tryAppend makes one attempt at appending rec under p.mu and, once it
// lands, publishes and checkpoints if the log crossed the threshold.
// The events take their numbers here: under p.mu no other record can
// take the same ones before publish records them.
func (p *persister) tryAppend(l *Lake, rec *walRecord, apply func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return errLakeClosed
	}
	rec.stamp(l)
	payload, err := json.Marshal(rec)
	if err != nil {
		return lakeerr.Wrap(lakeerr.CodeInternal, fmt.Errorf("core: encode wal record: %w", err))
	}
	frame := persist.EncodeFrame(payload)
	start := time.Now()
	if err := p.backend.AppendWAL(frame); err != nil {
		return err
	}
	p.degraded.Store(false)
	l.metrics.observeWALAppend(len(frame), time.Since(start))
	p.walRecords++
	l.publish(rec, apply)
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
// new segment and returns its name. Writers put while they prepare,
// outside every lake-wide lock, so concurrent writers overlap their
// segment I/O. A failed put is typed unavailable, and the caller has
// published nothing.
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

// checkpoint installs a manifest and truncates the WAL.
func (p *persister) checkpoint(l *Lake) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return persist.ErrClosed
	}
	return p.checkpointLocked(l)
}

// checkpointLocked requires p.mu. It may take l.mu and the component
// stores' own locks, but never maintMu — callers may hold it.
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
// plus the component stores' own locks; never maintMu. It sees only
// published writes, so a write still in flight, or refused, is in no
// manifest.
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
	entries := make([]entry, 0, len(l.entries))
	for _, e := range l.entries {
		entries = append(entries, e)
	}
	retired := append([]string(nil), l.retired...)
	l.mu.RUnlock()
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.ord, b.ord) })
	for _, e := range entries {
		if e.Path == "" {
			snap.Derived = append(snap.Derived, e.walRecord)
			continue
		}
		snap.Datasets = append(snap.Datasets, e.walRecord)
		if z, err := l.Handle.Zone(e.Path); err == nil && z != ZoneRaw {
			snap.Zones[e.Path] = z
		}
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
//
// Replay is a parallel prepare and a serial publish: workers decode the
// WAL frames and read, check and parse the segments (see replayer),
// while this goroutine publishes each unit in log order, so the lake
// comes out as a one-at-a-time replay leaves it.
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
	// named holds the segments the installed manifest names; inline is
	// set when it holds table bytes in the format before segments.
	named := map[string]bool{}
	inline := false
	var snap *lakeSnapshot
	var units []replayUnit
	if len(snapBytes) > 0 {
		snap = &lakeSnapshot{}
		if err := json.Unmarshal(snapBytes, snap); err != nil {
			return lakeerr.Errorf(lakeerr.CodeInternal, "core: corrupt snapshot: %v", err)
		}
		// An entry is its write's record without the kind: the list it
		// sits in says which.
		kinds := [2]string{recIngest, recDerive}
		for k, list := range [2][]walRecord{snap.Datasets, snap.Derived} {
			for _, rec := range list {
				rec.Kind = kinds[k]
				named[rec.Segment] = true
				inline = inline || rec.Segment == ""
				units = append(units, replayUnit{rec: rec})
			}
		}
	}
	// A failed WAL read fails the open only once the manifest's units
	// are published, so an earlier failure in log order still wins.
	walBytes, walErr := p.backend.ReadWAL()
	var torn int64
	if walErr == nil {
		var frames [][]byte
		frames, torn = persist.DecodeFrames(walBytes)
		for _, f := range frames {
			units = append(units, replayUnit{frame: f})
		}
	}
	r := p.startReplay(l, units)
	err = l.replay(p, r, snap, walErr, torn, &rs)
	r.stop()
	if err != nil {
		return err
	}
	rs.DamagedSegments = len(l.unserved)
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
	for _, e := range l.entries {
		named[e.Segment] = true
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

// replayUnit is one step of replay: a dataset or derived table the
// manifest names, or a WAL record. Its prepared half is filled in on
// whichever goroutine prepares it; the publisher reads it only once
// ready is done.
type replayUnit struct {
	// frame is a WAL record's payload, decoded into rec by prepare; a
	// manifest entry arrives as rec, with no frame.
	frame []byte
	rec   walRecord
	// decodeErr is why frame did not decode; readErr why the segment
	// could not be read: errDamaged, or the backend's failure.
	decodeErr error
	readErr   error
	// w is an ingest prepared, t a derived table parsed, and buildErr
	// why neither could be.
	w        *ingestWrite
	t        *table.Table
	buildErr error
	ready    sync.WaitGroup
}

// replayer prepares replay's units on GOMAXPROCS workers, each claiming
// the next unit in log order from a shared counter. Preparing touches
// no lake state, so units prepare in any order; the publisher waits for
// each in turn. With one unit or one processor no worker starts, and
// each unit is prepared inline when the publisher reaches it.
type replayer struct {
	l      *Lake
	p      *persister
	units  []replayUnit
	pooled bool
	next   atomic.Int64
	halted atomic.Bool
	wg     sync.WaitGroup
}

func (p *persister) startReplay(l *Lake, units []replayUnit) *replayer {
	r := &replayer{l: l, p: p, units: units}
	workers := min(runtime.GOMAXPROCS(0), len(units))
	if workers <= 1 {
		return r
	}
	r.pooled = true
	for i := range units {
		units[i].ready.Add(1)
	}
	r.wg.Add(workers)
	for range workers {
		go func() {
			defer r.wg.Done()
			for !r.halted.Load() {
				i := int(r.next.Add(1)) - 1
				if i >= len(r.units) {
					return
				}
				r.prepare(&r.units[i])
				r.units[i].ready.Done()
			}
		}()
	}
	return r
}

// unit returns unit i, prepared.
func (r *replayer) unit(i int) *replayUnit {
	u := &r.units[i]
	if r.pooled {
		u.ready.Wait()
	} else {
		r.prepare(u)
	}
	return u
}

// stop halts the workers and waits for them to return, so none
// outlives restore, whether or not every unit was published.
func (r *replayer) stop() {
	r.halted.Store(true)
	r.wg.Wait()
}

// prepare does the half of a unit's replay that needs no lake state:
// it decodes a WAL frame and, for an ingest or derive that names a
// segment, reads and checksums the segment and builds from it. Inline
// bytes, from the format before segments, are left to the publisher,
// which must first store them as a segment in log order.
func (r *replayer) prepare(u *replayUnit) {
	if u.frame != nil {
		if err := json.Unmarshal(u.frame, &u.rec); err != nil {
			u.decodeErr = err
			return
		}
	}
	if (u.rec.Kind != recIngest && u.rec.Kind != recDerive) || u.rec.Segment == "" {
		return
	}
	data, err := r.p.readSegment(u.rec.Segment)
	if err != nil {
		u.readErr = err
		return
	}
	r.l.build(u, data)
}

// build runs an ingest's prepare, or parses a derived table, from the
// bytes its segment holds.
func (l *Lake) build(u *replayUnit, data []byte) {
	if u.rec.Kind == recDerive {
		u.t, u.buildErr = table.ParseCSV(u.rec.Name, string(data))
		return
	}
	u.w, u.buildErr = l.prepareIngest(u.rec, data)
}

// replay publishes the prepared units in log order: the manifest's
// datasets and derived tables, the rest of the manifest, then the WAL's
// records. It stops at the first failure in that order.
func (l *Lake) replay(p *persister, r *replayer, snap *lakeSnapshot, walErr error, torn int64, rs *maintain.ReplayStats) error {
	i, snapMaxSeq := 0, 0
	if snap != nil {
		for n := len(snap.Datasets) + len(snap.Derived); i < n; i++ {
			u := r.unit(i)
			applied, err := l.publishReplayed(p, u)
			if err != nil {
				return err
			}
			if applied && u.rec.Kind == recIngest {
				rs.SnapshotDatasets++
			}
		}
		snapMaxSeq = l.applySnapshot(snap)
	}
	if walErr != nil {
		return lakeerr.Wrap(lakeerr.CodeUnavailable, walErr)
	}
	rs.TornBytes = torn
	if torn > 0 {
		p.warn(l, "persist: dropped torn wal tail", "bytes", torn)
	}
	for ; i < len(r.units); i++ {
		u := r.unit(i)
		rs.WALRecords++
		if u.decodeErr != nil {
			// A framed-but-unparseable record: count it skipped instead of
			// failing the open; the frame checksum says the bytes are what
			// was written, so this is a version skew, not corruption.
			p.warn(l, "persist: undecodable wal record", "error", u.decodeErr)
			rs.WALSkipped++
			continue
		}
		applied, err := l.applyRecord(p, u, snapMaxSeq)
		if err != nil {
			return err
		}
		if !applied {
			rs.WALSkipped++
		}
	}
	return nil
}

// applySnapshot restores the manifest's state beyond its datasets and
// derived tables; returns the highest provenance sequence number it
// injected so WAL records' events already contained in the snapshot can
// be recognized as duplicates.
func (l *Lake) applySnapshot(snap *lakeSnapshot) int {
	for name, role := range snap.Users {
		l.users[name] = Role(role)
	}
	for digest, user := range snap.Tokens {
		l.tokens[digest] = user
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

// applyRecord replays one WAL record; the false return marks a skip
// (a duplicate of snapshot state or a dataset that could not be
// restored), not a failure. Only backend I/O fails it. The events a
// record carries are injected whether or not its operation applies,
// unless the snapshot's event log already holds them.
func (l *Lake) applyRecord(p *persister, u *replayUnit, snapMaxSeq int) (bool, error) {
	rec := &u.rec
	injected := false
	for _, ev := range rec.events() {
		if ev.Seq > snapMaxSeq {
			l.Tracker.Inject(ev)
			injected = true
		}
	}
	switch rec.Kind {
	case recUser:
		l.users[rec.Name] = Role(rec.Role)
		return true, nil
	case recToken:
		l.publishToken(rec.Token, rec.Name)
		return true, nil
	case recIngest, recDerive:
		return l.publishReplayed(p, u)
	case recAudit:
		return injected, nil
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

// publishReplayed restores one prepared dataset or derived table
// through the live publish, without re-recording provenance
// (applyRecord injects the record's events) or re-appending to the
// WAL; restore runs before the lake is shared, so no path or name is
// reserved. It first raises the segment counter to the name the unit
// names or, for inline bytes, stores them as a new segment and builds
// from them: both in log order, so every segment name comes out as a
// one-at-a-time replay hands it out. A conflict is state replay already
// restored. A unit whose segment is damaged is not served, but its
// entry is put, marked damaged, so the segment's bytes stay for
// inspection until a write that claims its name replaces it. Each
// damaged entry is warned of once, however many units repeat it.
func (l *Lake) publishReplayed(p *persister, u *replayUnit) (bool, error) {
	rec := &u.rec
	if rec.Segment != "" {
		p.reserve(rec.Segment)
	} else {
		inline := rec.Data
		if rec.Kind == recDerive {
			inline = []byte(rec.CSV)
		}
		name, err := p.putSegment(l, inline)
		if err != nil {
			return false, err
		}
		rec.Segment = name
		l.build(u, inline)
	}
	damaged := errors.Is(u.readErr, errDamaged)
	if u.readErr != nil && !damaged {
		return false, u.readErr
	}
	what, attr, id := "dataset", "path", rec.Path
	if rec.Kind == recDerive {
		what, attr, id = "derived table", "name", rec.Name
	}
	// A damaged unit's kind is unknown, so it claims its basename.
	name := entryKey{rec.Path, rec.Name}.claim()
	if u.w != nil {
		name = u.w.staged.Placement.Name()
	}
	switch {
	case l.conflict(rec.Path, name) != nil:
		return false, nil
	case damaged:
		// A WAL duplicate of a damaged entry (its key and segment) is
		// the same entry, warned of once.
		if e, ok := l.entries[entryKey{rec.Path, rec.Name}]; !ok || e.Segment != rec.Segment {
			p.warn(l, "persist: "+what+" not served", attr, id, "error", u.readErr)
		}
		l.putEntry(rec, true)
		return false, nil
	case u.buildErr != nil:
		p.warn(l, "persist: replay "+rec.Kind, attr, id, "error", u.buildErr)
		return false, nil
	case rec.Kind == recDerive:
		l.publishDerive(rec, u.t)
	default:
		l.publishIngest(u.w)
	}
	return true, nil
}

// rebuildIndexesFromCoverage reconstructs the exploration indexes and
// the DS-kNN categorizer over the restored planner coverage, so a
// reopened, previously maintained lake answers Explore immediately and
// its first scheduled pass plans incrementally. Runs at the end of
// restore — one code path whether the coverage came from the snapshot
// or from a WAL coverage record. The categorizer is built on a second
// goroutine while the explorer indexes the same tables: both only read
// them, and share nothing else. The categorizer comes back over a
// channel, so neither index is installed before both are built. DS-kNN
// category numbering may differ from the original pass order (tables
// arrive sorted here); the next full rebuild squares that up.
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
	built := make(chan *organize.DSKNN, 1)
	go func() {
		knn := organize.NewDSKNN()
		for _, t := range tables {
			knn.Add(t)
		}
		built <- knn
	}()
	ex := explore.NewExplorer()
	err := ex.Index(tables)
	knn := <-built
	if err == nil {
		l.Explorer = ex
		l.metrics.setResidentBytes("token_sums", ex.TokenSumBytes())
	}
	l.knn = knn
	// A derivation that landed after the last committed pass has no
	// coverage; live operation would have left a pending ForceFull, which
	// planner.Restore cleared — reinstate it.
	for k := range l.entries {
		if k.path == "" && !covered[k.name] {
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

// dropSegment deletes the segment of a write that was not published;
// no manifest can name it.
func (l *Lake) dropSegment(name string) {
	if l.pers != nil && name != "" {
		l.pers.deleteSegment(l, name)
	}
}

// persistRecord appends one WAL record when persistence is configured.
// Call sites sit outside l.mu and the component stores' locks (the
// record may trigger a checkpoint); maintMu is safe to hold.
func (l *Lake) persistRecord(rec *walRecord) error {
	return l.persistThen(rec, nil)
}

// persistThen logs rec, then publishes the write it carries: apply
// (if any) runs after the record lands and before any checkpoint the
// append triggers, so no manifest holds the state from before a logged
// write, and not at all if the record is dropped; the record's events
// are recorded with it. apply may take l.mu and the component stores'
// locks. Without persistence it just publishes.
func (l *Lake) persistThen(rec *walRecord, apply func()) error {
	if l.pers == nil {
		l.publish(rec, apply)
		return nil
	}
	return l.pers.append(l, rec, apply)
}

// publish makes a logged write visible: apply's state, then the
// record's events and the lineage they imply, through the same
// Tracker.Inject that replay calls, in the order events lists them.
// Without persistence the events are unnumbered, and Inject numbers
// them.
func (l *Lake) publish(rec *walRecord, apply func()) {
	if apply != nil {
		apply()
	}
	if len(rec.Events) > 0 {
		l.Tracker.Inject(rec.Events...)
	}
	if rec.Event != nil {
		l.Tracker.Inject(*rec.Event)
	}
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
