// Package core assembles the paper's primary contribution — the
// function-oriented three-tier data lake architecture of Fig. 2 — into
// an executable system: a storage tier (the polystore), an ingestion
// tier (metadata extraction + modeling), a maintenance tier
// (organization, discovery, integration, enrichment, cleaning,
// evolution, provenance), and an exploration tier (query-driven
// discovery + heterogeneous querying), plus the cross-cutting concerns
// the survey calls out: zones, user roles (Sec. 3.3), and the
// swamp-guard metadata checks motivated by the Gartner critique
// (Sec. 2.2).
//
// Every Lake operation takes a context.Context and honors cancellation
// in its long loops, and every failure is classified through the
// lakeerr taxonomy so callers (and the REST layer) dispatch on error
// codes instead of message text.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"golake/internal/admission"
	"golake/internal/clean"
	"golake/internal/discovery"
	"golake/internal/enrich"
	"golake/internal/explore"
	"golake/internal/extract"
	"golake/internal/maintain"
	"golake/internal/metamodel"
	"golake/internal/obs"
	"golake/internal/organize"
	"golake/internal/persist"
	"golake/internal/provenance"
	"golake/internal/query"
	"golake/internal/remote"
	"golake/internal/storage/filestore"
	"golake/internal/storage/polystore"
	"golake/internal/table"
	"golake/lakeerr"
)

// Role is a data lake user role (Sec. 3.3).
type Role string

// The user roles of the business data lake scenario.
const (
	RoleDataScientist Role = "data-scientist"
	RoleCurator       Role = "curator"
	RoleGovernance    Role = "governance"
	RoleOperations    Role = "operations"
)

// Zones a dataset progresses through (zone architecture, Sec. 3.1).
const (
	ZoneRaw     = "raw"
	ZoneCurated = "curated"
	ZoneTrusted = "trusted"
)

// Errors returned by the lake. Each sentinel is wrapped in a
// lakeerr.Error carrying its code, so both errors.Is on the sentinel
// and lakeerr.CodeOf on the classification work.
var (
	ErrNoSuchUser    = errors.New("core: unknown user")
	ErrNotAuthorized = errors.New("core: not authorized")
	ErrNotMaintained = errors.New("core: run Maintain before exploring")
	ErrExists        = errors.New("core: dataset already ingested")
)

// Option configures an assembled lake.
type Option func(*options)

type options struct {
	clock         func() time.Time
	maxResults    int
	logger        *slog.Logger
	autoMaintain  time.Duration
	backend       persist.Backend
	snapshotEvery int64
	metricsOff    bool
	admission     admission.Config
	admissionSet  bool
	remotes       []remoteSpec
	routeRemotes  bool
}

// remoteSpec is one WithRemoteStore registration, resolved in Open.
type remoteSpec struct {
	name    string
	baseURL string
	opts    remote.Options
}

// WithClock substitutes the lake's time source (tests, replays).
func WithClock(clock func() time.Time) Option {
	return func(o *options) { o.clock = clock }
}

// WithMaxResults caps the row count of QuerySQL results and the K of
// exploration requests. Zero means unlimited.
func WithMaxResults(n int) Option {
	return func(o *options) { o.maxResults = n }
}

// WithLogger installs a structured logger; the REST layer's request
// logging middleware uses it. Nil (the default) disables logging.
func WithLogger(l *slog.Logger) Option {
	return func(o *options) { o.logger = l }
}

// WithMetrics toggles the lake's metric registry (on by default): HTTP,
// query, maintenance, and persistence series served at GET /v1/metrics
// in the Prometheus text format and readable through Lake.Metrics.
// Disabling removes the instrumentation fold entirely — the overhead
// benchmark's baseline.
func WithMetrics(enabled bool) Option {
	return func(o *options) { o.metricsOff = !enabled }
}

// WithPersistence attaches a durability backend: every mutating
// operation (ingest, derive, evict, user registration, query audit,
// maintenance coverage) appends one checksummed record, carrying the
// provenance events it captured, to the backend's write-ahead log, a
// periodic snapshot truncates the log, and Open replays snapshot + WAL
// so a reopened lake — even one that was hard-stopped without Close —
// serves the same query results and resumes maintenance incrementally. A torn WAL tail (crash mid-append)
// is detected by per-record checksums and dropped with a warning, never
// a failed open. Close flushes a final snapshot.
func WithPersistence(backend persist.Backend) Option {
	return func(o *options) { o.backend = backend }
}

// WithSnapshotEvery sets the WAL size (bytes) that triggers a
// checkpoint (snapshot + log truncation). Default 4 MiB; zero or
// negative disables size-triggered checkpoints (Close still flushes).
func WithSnapshotEvery(walBytes int64) Option {
	return func(o *options) { o.snapshotEvery = walBytes }
}

// WithAdmission places an admission controller in front of every query
// entry point (Lake.Query and everything that shims onto it, including
// POST /v1/query). The controller enforces, per the config: per-user
// concurrency quotas with bounded-wait queueing, per-user token-bucket
// rate limits, a global in-flight ceiling, and default/maximum query
// deadlines and memory budgets. Rejections are typed lakeerr failures —
// resource_exhausted for quota/rate shedding (HTTP 429 with a
// Retry-After hint), unavailable for global saturation (HTTP 503) — so
// clients can distinguish "back off and retry" from "the lake is
// overloaded". The zero Config admits everything; without this option
// no controller is installed at all.
func WithAdmission(cfg admission.Config) Option {
	return func(o *options) {
		o.admission = cfg
		o.admissionSet = true
	}
}

// WithRemoteStore federates another golake into this one as a member
// store named name: queries addressing "name:dataset" open a streaming
// POST /v1/query against baseURL, with predicates, projections, and
// ORDER BY+LIMIT pushed down as an ordinary SELECT. To the fan-in
// machinery the remote lake is just a slow member store —
// scatter-gather across N members is the same ParallelUnion that
// drains local scans. Remote failures are typed: the member's error
// envelope keeps its lakeerr code, connect failures retry with capped
// backoff and then classify as unavailable, and a connection dropped
// mid-stream is an unavailable error, never a silent short result.
func WithRemoteStore(name, baseURL string, opts remote.Options) Option {
	return func(o *options) {
		o.remotes = append(o.remotes, remoteSpec{name: name, baseURL: baseURL, opts: opts})
	}
}

// WithRemoteRouting enables consistent-hash placement over the
// registered remote members: a bare dataset name that resolves to no
// local store is routed to the member a 64-vnode hash ring assigns it,
// so "SELECT * FROM orders" finds the member holding orders without the
// caller naming it. Placements are deterministic for a given member
// set, and mostly stable when members are added or removed.
func WithRemoteRouting(enabled bool) Option {
	return func(o *options) { o.routeRemotes = enabled }
}

// WithAutoMaintain starts a background maintenance scheduler when the
// lake opens: every interval it checks Stale and, when new data
// arrived, runs an incremental pass — so ingested data becomes
// explorable without an operator calling Maintain. Failed passes retry
// with jittered exponential backoff. Call Close to stop the scheduler.
func WithAutoMaintain(interval time.Duration) Option {
	return func(o *options) { o.autoMaintain = interval }
}

// Lake is one assembled data lake instance.
type Lake struct {
	// Storage tier.
	Poly *polystore.Poly
	// Ingestion-tier metadata models.
	GEMMS  *metamodel.GEMMSModel
	Handle *metamodel.HANDLE
	// Maintenance-tier components.
	Catalog *organize.Catalog
	Tracker *provenance.Tracker
	// Exploration tier.
	Explorer *explore.Explorer
	Engine   *query.Engine

	mu    sync.RWMutex
	users map[string]Role
	// tokens maps sha256-hex bearer-token digests to user names; the
	// plaintext token is never stored. Guarded by mu alongside users.
	tokens map[string]string
	// ingestGen counts ingests; maintainedGen records the ingest
	// generation the last completed Maintain pass covered. Together
	// they make Maintain safe under concurrent ingest: a racing ingest
	// bumps ingestGen past the snapshot, so the lake reports itself
	// stale instead of silently claiming freshness.
	ingestGen     uint64
	maintainedGen uint64
	maintained    bool
	// nameToPath indexes model-store names (relational table, document
	// collection) back to ingest paths, so per-query provenance
	// resolution is O(1) instead of O(placements).
	nameToPath map[string]string
	// busyPaths and busyNames are the dataset paths and model-store names
	// reserved by writes in flight: a write takes them before it
	// prepares and lets them go once it is published or refused, so two
	// writes can never publish one path or name.
	busyPaths map[string]struct{}
	busyNames map[string]struct{}
	// pendingPromote accumulates paths ingested since the last
	// maintenance pass, so an incremental pass promotes zones in
	// O(new data) instead of rescanning every placement.
	pendingPromote []string
	// entries holds the lake's ingests and derives, one per key, and
	// commits numbers their commits. unserved lists the keys of those
	// replay found damaged, until writes replace them (guarded by mu).
	entries  map[entryKey]entry
	commits  uint64
	unserved []entryKey
	// retired lists the segments of evicted datasets, in eviction order;
	// a checkpoint deletes them once its manifest no longer names them
	// (guarded by mu).
	retired []string

	// maintMu serializes Maintain passes; Evict and Close take it too.
	maintMu sync.Mutex

	// Incremental-maintenance state. planner tracks per-dataset
	// coverage; knn is the persistent DS-kNN categorizer incremental
	// passes extend (both guarded by maintMu). sched is the background
	// scheduler WithAutoMaintain starts (set once in Open, nil without).
	planner *maintain.Planner
	knn     *organize.DSKNN
	sched   *maintain.Scheduler
	// pers is the persistence layer WithPersistence attaches (set once
	// in Open, nil without).
	pers *persister

	// Pass bookkeeping for the maintenance status snapshot (guarded by
	// mu).
	maintRunning  bool
	passesRun     uint64
	maintFailures uint64
	lastMaintErr  string
	lastPass      *maintain.PassStats
	lastPassTime  time.Time

	clock      func() time.Time
	maxResults int
	logger     *slog.Logger
	// metrics is the lake's metric surface (nil with WithMetrics(false));
	// every layer records through its nil-safe observe helpers.
	metrics *lakeMetrics
	// adm is the admission controller WithAdmission installs (nil
	// without — every query is admitted unconditionally).
	adm *admission.Controller
}

// defaultSnapshotEvery is the WAL size that triggers a checkpoint when
// WithSnapshotEvery is not given.
const defaultSnapshotEvery = 4 << 20

// Open assembles a lake rooted at dir. The lake itself writes nothing
// there: without persistence it keeps everything, raw bytes included, in
// memory; with WithPersistence the backend (conventionally a Local one at
// dir/.golake) holds its durable state, and its snapshot and WAL are
// replayed before the lake is returned: a previously persisted lake
// resumes with its datasets, users, audit trail, and maintenance
// coverage intact.
func Open(dir string, opts ...Option) (*Lake, error) {
	o := options{snapshotEvery: defaultSnapshotEvery}
	for _, opt := range opts {
		opt(&o)
	}
	if o.clock == nil {
		o.clock = time.Now
	}
	poly, err := polystore.New(dir)
	if err != nil {
		return nil, lakeerr.Wrap(lakeerr.CodeUnavailable, err)
	}
	l := &Lake{
		Poly:       poly,
		GEMMS:      metamodel.NewGEMMS(),
		Handle:     metamodel.NewHANDLE(),
		Catalog:    organize.NewCatalog(poly),
		Tracker:    provenance.NewTracker(o.clock),
		Explorer:   explore.NewExplorer(),
		planner:    maintain.NewPlanner(),
		knn:        organize.NewDSKNN(),
		users:      map[string]Role{},
		tokens:     map[string]string{},
		nameToPath: map[string]string{},
		entries:    map[entryKey]entry{},
		busyPaths:  map[string]struct{}{},
		busyNames:  map[string]struct{}{},
		clock:      o.clock,
		maxResults: o.maxResults,
		logger:     o.logger,
	}
	if !o.metricsOff {
		l.metrics = newLakeMetrics()
	}
	if o.admissionSet {
		l.adm = admission.New(o.admission, o.clock)
		if l.metrics != nil {
			l.adm.SetHooks(admission.Hooks{
				Admitted:  l.metrics.observeAdmitted,
				Queued:    l.metrics.observeAdmissionQueued,
				Shed:      func(user, _ string) { l.metrics.observeAdmissionShed(user) },
				Released:  l.metrics.observeAdmissionReleased,
				QueueWait: l.metrics.observeAdmissionWait,
			})
		}
	}
	l.Engine = query.NewEngine(poly)
	if len(o.remotes) > 0 {
		l.Engine.Remotes = make(map[string]query.RemoteOpener, len(o.remotes))
		names := make([]string, 0, len(o.remotes))
		for _, rs := range o.remotes {
			c := remote.New(rs.name, rs.baseURL, rs.opts)
			// The observer is nil-safe, so member clients stay wired even
			// with WithMetrics(false).
			c.SetObserver(remoteObserver{m: l.metrics})
			l.Engine.Remotes[rs.name] = c
			names = append(names, rs.name)
		}
		if o.routeRemotes {
			ring := remote.NewRing(names, 0)
			l.Engine.Locate = func(dataset string) (string, bool) { return ring.Locate(dataset) }
		}
	}
	if o.backend != nil {
		l.pers = &persister{backend: o.backend, threshold: o.snapshotEvery, sleep: time.Sleep}
		if err := l.pers.restore(l); err != nil {
			return nil, err
		}
	}
	if o.autoMaintain > 0 {
		l.sched = maintain.NewScheduler(schedTarget{l}, maintain.Config{
			Interval: o.autoMaintain,
			Clock:    o.clock,
			OnRetry: func(consecutive int, delay time.Duration) {
				l.metrics.observeRetry()
				if l.logger != nil {
					l.logger.Warn("maintenance retry scheduled",
						"consecutive_failures", consecutive, "delay", delay)
				}
			},
		})
		l.sched.Start()
	}
	return l, nil
}

// Close shuts the lake down cleanly: the background maintenance
// scheduler is stopped first and fully drained (an in-flight pass
// observes cancellation and returns), and only then — with maintMu held
// so no pass can slip in — is the final persistence snapshot flushed
// and the backend closed. A write logs and publishes under the
// persister's lock, which the final snapshot holds too: a write that
// races Close is either in that snapshot or refused with nothing
// published. Safe to call more than once; a lake opened without
// WithAutoMaintain or WithPersistence closes trivially.
func (l *Lake) Close() error {
	if l.sched != nil {
		l.sched.Stop()
	}
	for _, opener := range l.Engine.Remotes {
		if c, ok := opener.(interface{ CloseIdle() }); ok {
			c.CloseIdle()
		}
	}
	if l.pers != nil {
		l.maintMu.Lock()
		defer l.maintMu.Unlock()
		return l.pers.close(l)
	}
	return nil
}

// schedTarget adapts the Lake to the scheduler's Target interface and
// routes pass outcomes into the configured logger.
type schedTarget struct{ l *Lake }

func (t schedTarget) Stale() bool { return t.l.Stale() }

func (t schedTarget) Pass(ctx context.Context) (maintain.PassStats, error) {
	rep, err := t.l.MaintainIncremental(ctx)
	if err != nil {
		if t.l.logger != nil && ctx.Err() == nil {
			t.l.logger.Warn("maintenance pass failed", "error", err)
		}
		return maintain.PassStats{}, err
	}
	if t.l.logger != nil {
		t.l.logger.Info("maintenance pass",
			"mode", rep.Mode, "datasets", rep.DatasetsReindexed,
			"tables", rep.Tables, "duration", rep.Duration)
	}
	return rep.stats(), nil
}

// AddUser registers a user with a role.
func (l *Lake) AddUser(name string, role Role) {
	l.mu.Lock()
	l.users[name] = role
	l.mu.Unlock()
	// AddUser returns no error; on a closed lake the registration holds
	// in memory only and is not logged.
	_ = l.persistRecord(&walRecord{Kind: recUser, Name: name, Role: string(role)})
}

// AddToken registers a bearer token for an already-registered user.
// Only the token's sha256 digest is kept (and persisted), so neither
// the WAL nor a snapshot ever holds the plaintext. Requests carrying
// "Authorization: Bearer <token>" authenticate as the user; a remote
// member lake configured with the token authenticates federated hops
// the same way, so the remote path is never an auth bypass. The
// registration takes effect only once its WAL record lands; if the
// record cannot be logged, the token keeps its previous owner, or none,
// and the error is unavailable.
func (l *Lake) AddToken(user, token string) error {
	if _, err := l.roleOf(user); err != nil {
		return err
	}
	if token == "" {
		return lakeerr.Errorf(lakeerr.CodeInvalidQuery, "core: empty bearer token")
	}
	h := hashToken(token)
	return l.persistThen(&walRecord{Kind: recToken, Name: user, Token: h}, func() { l.publishToken(h, user) })
}

// publishToken registers a token digest for user — the shared publish
// of live AddToken and persistence replay.
func (l *Lake) publishToken(digest, user string) {
	l.mu.Lock()
	l.tokens[digest] = user
	l.mu.Unlock()
}

// userForToken resolves a bearer token to its registered user.
func (l *Lake) userForToken(token string) (string, bool) {
	h := hashToken(token)
	l.mu.RLock()
	u, ok := l.tokens[h]
	l.mu.RUnlock()
	return u, ok
}

// hashToken is the stored form of a bearer token.
func hashToken(token string) string {
	sum := sha256.Sum256([]byte(token))
	return hex.EncodeToString(sum[:])
}

// roleOf returns the user's role.
func (l *Lake) roleOf(user string) (Role, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	r, ok := l.users[user]
	if !ok {
		return "", lakeerr.Errorf(lakeerr.CodeUnauthorized, "%w: %s", ErrNoSuchUser, user)
	}
	return r, nil
}

// ctxErr classifies a context failure as CodeUnavailable.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return lakeerr.Wrap(lakeerr.CodeUnavailable, err)
	}
	return nil
}

// IngestResult reports where an object landed and what was extracted.
type IngestResult struct {
	Placement polystore.Placement
	Metadata  *extract.Metadata
}

// Ingest runs the full ingestion-tier workflow for one object: store
// raw bytes (routing the parsed form to the matching member store),
// extract metadata, register it in the GEMMS model, place it in HANDLE's
// raw zone, catalog it, and record provenance. The dataset is
// known by its path's canonical form (filestore.CleanPath), the key its
// raw bytes are stored under. Re-ingesting an existing path is a
// conflict, as is an object placed in a table or a collection whose
// name (the path's basename) the lake already holds; a file-only object
// holds no name. A path with a ".." element, an empty one or one under
// .golake is invalid; either way nothing is written.
//
// The ingest is prepared off to the side, logged, then published. It
// reserves its path (one an in-flight write holds is a conflict); on a
// persistent lake it stores the raw bytes once, as a segment; it
// parses, places and describes the object where nothing can see it;
// and it reserves the name its placement holds, if any. It then
// commits as one WAL record carrying its provenance event, and only
// once that record lands is any of it published. A failed segment put,
// a closed lake, or a record that cannot be logged leaves nothing
// behind, and the ingest is unavailable.
func (l *Lake) Ingest(ctx context.Context, path string, data []byte, source, user string) (*IngestResult, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	path, err := filestore.CleanPath(path)
	if err != nil {
		return nil, lakeerr.Wrap(lakeerr.CodeInvalidQuery, err)
	}
	if err := l.reserve(path, ""); err != nil {
		return nil, err
	}
	defer l.release(path, "")
	if err := l.conflict(path, ""); err != nil {
		return nil, err
	}
	seg, err := l.putSegment(data)
	if err != nil {
		return nil, err
	}
	ev := provenance.IngestEvent(path, source, user)
	w, err := l.prepareIngest(walRecord{Kind: recIngest, Path: path, Segment: seg, Source: source, User: user, Event: &ev}, data)
	var name string // "" for a file-only object, which holds none
	if err == nil {
		name = w.staged.Placement.Name()
		err = l.reserve("", name)
	}
	if err == nil {
		defer l.release("", name)
		err = l.conflict("", name)
	}
	if err == nil {
		err = l.persistThen(&w.rec, func() { l.publishIngest(w) })
	}
	if err != nil {
		// Nothing was published, so no manifest names the segment.
		l.dropSegment(seg)
		return nil, err
	}
	l.logAudit(ctx, "ingest", path, user)
	return &IngestResult{Placement: w.staged.Placement, Metadata: w.md}, nil
}

// reserve takes a dataset path and a model-store name ("" for none) for
// a write in flight, or answers conflict when another write in flight
// holds either. The write checks the lake's published state only once
// it holds them, so no other write can publish them in between; release
// lets them go.
func (l *Lake) reserve(path, name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// "" is never reserved, so it is never busy.
	if _, busy := l.busyPaths[path]; busy {
		return lakeerr.Errorf(lakeerr.CodeConflict, "core: a write in flight holds path %s", path)
	}
	if _, busy := l.busyNames[name]; busy {
		return lakeerr.Errorf(lakeerr.CodeConflict, "core: a write in flight holds name %q", name)
	}
	if path != "" {
		l.busyPaths[path] = struct{}{}
	}
	if name != "" {
		l.busyNames[name] = struct{}{}
	}
	return nil
}

// release lets go of what reserve took.
func (l *Lake) release(path, name string) {
	l.mu.Lock()
	delete(l.busyPaths, path)
	delete(l.busyNames, name)
	l.mu.Unlock()
}

// conflict is a conflict when the lake holds path already ("" for a
// derive, which has none), or holds name: nameToPath indexes every
// table and collection the lake publishes, so no two datasets or
// derived tables land on one model-store name and clobber each other.
func (l *Lake) conflict(path, name string) error {
	if _, ok := l.Poly.PlacementOf(path); ok {
		return lakeerr.Errorf(lakeerr.CodeConflict, "%w: %s", ErrExists, path)
	}
	l.mu.RLock()
	prev, taken := l.nameToPath[name]
	l.mu.RUnlock()
	if taken {
		return lakeerr.Errorf(lakeerr.CodeConflict, "%w: name %q is held by %s", ErrExists, name, prev)
	}
	return nil
}

// ingestWrite is an ingest prepared off to the side: its object placed
// and its metadata extracted where nothing can see them until
// publishIngest, beside the WAL record that commits it.
type ingestWrite struct {
	rec    walRecord
	staged polystore.Staged
	md     *extract.Metadata
	obj    *metamodel.MetadataObject
}

// prepareIngest runs the ingestion pipeline up to publication — the
// shared body of live Ingest and persistence replay. A CSV is parsed
// and typed once: placement hands the table it parsed (nil for
// anything else, an unparseable CSV included) on to extraction. A
// durable lake's file store reads the raw bytes back from their segment
// instead of keeping a copy.
func (l *Lake) prepareIngest(rec walRecord, data []byte) (*ingestWrite, error) {
	st, err := polystore.Prepare(rec.Path, data, l.segmentReader(rec.Segment))
	if err != nil {
		return nil, lakeerr.Wrap(lakeerr.CodeInternal, err)
	}
	md, err := extract.ExtractParsed(rec.Path, data, st.Table)
	if err != nil {
		// Raw bytes stay; metadata extraction failure leaves the
		// object catalogued as swamp-risk (detectable by SwampAudit).
		md = &extract.Metadata{Path: rec.Path, Format: st.Placement.Format, Properties: map[string]string{}}
	}
	return &ingestWrite{rec: rec, staged: st, md: md, obj: metamodel.FromExtraction(md)}, nil
}

// publishIngest makes a prepared ingest visible: placement (which the
// catalog reads), metadata, raw zone and the lake's own indexes.
func (l *Lake) publishIngest(w *ingestWrite) {
	path, pl := w.rec.Path, w.staged.Placement
	l.Poly.Publish(&w.staged)
	l.GEMMS.Register(w.obj)
	// The path was free when the ingest reserved it, so HANDLE holds no
	// zone for it.
	_ = l.Handle.AddData(path, ZoneRaw)
	l.mu.Lock()
	l.ingestGen++
	l.pendingPromote = append(l.pendingPromote, path)
	l.putEntry(&w.rec, false)
	if name := pl.Name(); name != "" {
		l.nameToPath[name] = path
	}
	l.mu.Unlock()
}

// IngestItem is one object of a bulk load.
type IngestItem struct {
	Path   string
	Data   []byte
	Source string
}

// IngestBatch ingests items in order, stopping at the first failure or
// cancellation. It returns the results of the items that landed; on
// error the ingested prefix stays in the lake (run Maintain to index
// it) and the error identifies the failing item.
func (l *Lake) IngestBatch(ctx context.Context, user string, items []IngestItem) ([]IngestResult, error) {
	out := make([]IngestResult, 0, len(items))
	for _, it := range items {
		res, err := l.Ingest(ctx, it.Path, it.Data, it.Source, user)
		if err != nil {
			return out, fmt.Errorf("ingest %s: %w", it.Path, err)
		}
		out = append(out, *res)
	}
	return out, nil
}

// MaintenanceReport summarizes one maintenance pass.
type MaintenanceReport struct {
	// Mode is "full" or "incremental"; Reason says why a pass went full
	// ("first-pass", "eviction", "derive", "requested", "recovery").
	Mode   string
	Reason string
	// Tables is the corpus size after the pass; DatasetsReindexed is
	// how many datasets the pass actually profiled and indexed — the
	// incremental win: 1 new dataset in a maintained lake of N costs
	// O(1 dataset), not O(N).
	Tables            int
	DatasetsReindexed int
	Categories        map[int][]string
	RFDs              []enrich.RFD
	IndexedCols       int
	// CleanViolations counts CLAMS constraint violations found in the
	// datasets this pass profiled (cleaning-function triage input).
	CleanViolations int
	// Generation is the ingest generation this pass covered; Stale
	// reports whether new ingests arrived while the pass ran (the next
	// pass covers them).
	Generation uint64
	Stale      bool
	// Duration is the wall-clock cost of the pass.
	Duration time.Duration
}

// stats projects the report onto the wire-level pass summary.
func (r *MaintenanceReport) stats() maintain.PassStats {
	return maintain.PassStats{
		Mode: r.Mode, Reason: r.Reason,
		Datasets: r.DatasetsReindexed, Tables: r.Tables,
		Generation: r.Generation, Duration: r.Duration,
	}
}

// Maintain runs a full maintenance pass over all relational datasets:
// rebuilds the exploration indexes, categorizes datasets (DS-kNN),
// discovers relaxed FDs, flags cleaning candidates (CLAMS), and
// promotes profiled datasets to the curated zone. Concurrent passes
// serialize; ingests racing the pass are detected via the ingest
// generation and surface as Stale in the report rather than being
// silently claimed as indexed. Prefer MaintainIncremental unless a
// from-scratch rebuild is the point.
func (l *Lake) Maintain(ctx context.Context) (*MaintenanceReport, error) {
	l.maintMu.Lock()
	defer l.maintMu.Unlock()
	return l.maintainLocked(ctx, true)
}

// MaintainIncremental runs the cheapest correct maintenance pass:
// datasets ingested since the last covered generation are indexed
// incrementally — O(new data) instead of O(lake) — while the first
// pass, evictions, derived tables, and recovery after a failed pass
// fall back to a full rebuild. This is what the background scheduler
// runs.
func (l *Lake) MaintainIncremental(ctx context.Context) (*MaintenanceReport, error) {
	l.maintMu.Lock()
	defer l.maintMu.Unlock()
	return l.maintainLocked(ctx, false)
}

// TriggerMaintain runs an incremental pass unless one is already in
// flight, in which case it reports a conflict instead of queueing.
// On conflict with auto-maintenance enabled, the scheduler is kicked
// so any data the running pass misses is covered right after it
// drains, not an interval later. This is the POST /v1/maintenance
// entry point.
func (l *Lake) TriggerMaintain(ctx context.Context) (*MaintenanceReport, error) {
	if !l.maintMu.TryLock() {
		if l.sched != nil {
			l.sched.Trigger()
		}
		return nil, lakeerr.Errorf(lakeerr.CodeConflict, "core: a maintenance pass is already running")
	}
	defer l.maintMu.Unlock()
	return l.maintainLocked(ctx, false)
}

// maintainLocked executes one pass and updates the status bookkeeping;
// maintMu must be held.
func (l *Lake) maintainLocked(ctx context.Context, wantFull bool) (*MaintenanceReport, error) {
	start := time.Now()
	l.mu.Lock()
	l.maintRunning = true
	l.mu.Unlock()
	rep, err := l.runPass(ctx, wantFull)
	l.mu.Lock()
	l.maintRunning = false
	if err != nil {
		l.maintFailures++
		l.lastMaintErr = err.Error()
	} else {
		rep.Duration = time.Since(start)
		l.passesRun++
		l.lastMaintErr = ""
		stats := rep.stats()
		l.lastPass = &stats
		l.lastPassTime = l.clock()
	}
	l.mu.Unlock()
	if err != nil {
		l.metrics.observeMaintPass("", 0, 0, true)
	} else {
		l.metrics.observeMaintPass(rep.Mode, rep.Duration, rep.DatasetsReindexed, false)
		l.mu.RLock()
		ex := l.Explorer
		l.mu.RUnlock()
		l.metrics.setResidentBytes("token_sums", ex.TokenSumBytes())
	}
	if err == nil {
		// Checkpoint the planner coverage so a reopened lake resumes
		// incrementally instead of re-running this pass from scratch.
		l.timeStage("persist", func() error { l.persistCoverage(); return nil })
	}
	return rep, err
}

// runPass plans and executes one maintenance pass; maintMu must be
// held.
func (l *Lake) runPass(ctx context.Context, wantFull bool) (*MaintenanceReport, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	// Snapshot the planner's force counter before anything else: a
	// Derive landing after this point keeps its forced rebuild across
	// this pass's commit (its table may be missing from our listing).
	forceSeq := l.planner.Snapshot()
	// Snapshot the generation and drain the pending zone promotions
	// together: ingests racing the pass land after this point and stay
	// pending for the next one.
	l.mu.Lock()
	gen := l.ingestGen
	pending := l.pendingPromote
	l.pendingPromote = nil
	l.mu.Unlock()
	// A failed pass gives its drained promotions back so the recovery
	// pass still covers them.
	restorePending := func() {
		l.mu.Lock()
		l.pendingPromote = append(pending, l.pendingPromote...)
		l.mu.Unlock()
	}
	// Plan from the names alone and copy out only the tables the plan
	// reads: every one for a full pass, the new ones for an incremental
	// pass. Evict holds maintMu too, so no listed name goes away
	// mid-pass.
	names := l.Poly.Rel.Names()
	plan := l.planner.PlanAt(forceSeq, names)
	if wantFull && !plan.Full {
		plan = l.planner.FullPlanAt(forceSeq, "requested", names)
	}
	fetch := plan.New
	if plan.Full {
		fetch = names
	}
	tables := make([]*table.Table, len(fetch))
	for i, name := range fetch {
		t, err := l.Poly.Rel.Table(name)
		if err != nil {
			restorePending()
			return nil, lakeerr.Wrap(lakeerr.CodeInternal, err)
		}
		tables[i] = t
	}
	var rep *MaintenanceReport
	var ex *explore.Explorer
	var err error
	if plan.Full {
		// The full pass rescans every placement for zone promotion, a
		// superset of the drained pending paths.
		rep, ex, err = l.fullPass(ctx, tables)
	} else {
		rep, err = l.incrementalPass(ctx, len(names), tables, pending)
	}
	if err != nil {
		restorePending()
		if !plan.Full {
			// An aborted incremental pass may have left the live
			// indexes half-updated; rebuild from scratch next time.
			l.planner.ForceFull("recovery")
		}
		return nil, err
	}
	rep.Mode = "incremental"
	if plan.Full {
		rep.Mode = "full"
	}
	rep.Reason = plan.Reason
	rep.Generation = gen
	l.planner.Commit(plan, names)
	l.mu.Lock()
	if ex != nil {
		l.Explorer = ex
	}
	l.maintained = true
	if gen > l.maintainedGen {
		l.maintainedGen = gen
	}
	rep.Stale = l.ingestGen > l.maintainedGen
	l.mu.Unlock()
	return rep, nil
}

// fullPass rebuilds every index from scratch. It indexes into a fresh
// Explorer and returns it for runPass to swap in atomically with the
// generation bookkeeping: in-flight Explore calls keep reading the
// previous index instead of racing the rebuild.
func (l *Lake) fullPass(ctx context.Context, tables []*table.Table) (*MaintenanceReport, *explore.Explorer, error) {
	rep := &MaintenanceReport{Tables: len(tables), DatasetsReindexed: len(tables)}
	ex := explore.NewExplorer()
	if err := l.timeStage("explore", func() error { return ex.Index(tables) }); err != nil {
		return nil, nil, lakeerr.Wrap(lakeerr.CodeInternal, err)
	}
	knn := organize.NewDSKNN()
	if err := l.profileStages(ctx, rep, knn, tables); err != nil {
		return nil, nil, err
	}
	if err := l.timeStage("promote", func() error { return l.promoteCurated(ctx) }); err != nil {
		return nil, nil, err
	}
	l.knn = knn
	return rep, ex, nil
}

// incrementalPass indexes only the fresh datasets into the live
// structures: the Explorer adds them under its internal lock (readers
// keep answering), DS-kNN classifies them against the existing
// categories, RFD/clean profiling runs per new dataset only, and zone
// promotion covers just the drained pending ingests — every step is
// O(new data), not O(lake).
func (l *Lake) incrementalPass(ctx context.Context, corpusSize int, fresh []*table.Table, pending []string) (*MaintenanceReport, error) {
	rep := &MaintenanceReport{Tables: corpusSize, DatasetsReindexed: len(fresh)}
	l.mu.RLock()
	ex := l.Explorer
	l.mu.RUnlock()
	if err := l.timeStage("explore", func() error { return ex.Add(fresh...) }); err != nil {
		return nil, lakeerr.Wrap(lakeerr.CodeInternal, err)
	}
	if err := l.profileStages(ctx, rep, l.knn, fresh); err != nil {
		return nil, err
	}
	if err := l.timeStage("promote", func() error { return l.promotePaths(ctx, pending) }); err != nil {
		return nil, err
	}
	return rep, nil
}

// profileStages runs a pass's per-dataset stages over tables, one stage
// after the other so each is timed once: DS-kNN categorisation, relaxed
// FD discovery, and the CLAMS cleaning triage. A table's RFDs are
// discovered once, at the lower of the two confidences: the report
// keeps those at rfdMinConfidence, and CLAMS counts the violations of
// all of them. It fills the report's columns, categories, RFDs and
// violations.
func (l *Lake) profileStages(ctx context.Context, rep *MaintenanceReport, knn *organize.DSKNN, tables []*table.Table) error {
	constraints := make([][]clean.DiscoveredConstraint, len(tables))
	stages := []struct {
		name string
		run  func(i int, t *table.Table)
	}{
		{"knn", func(_ int, t *table.Table) {
			knn.Add(t)
			rep.IndexedCols += t.NumCols()
		}},
		{"rfd", func(i int, t *table.Table) {
			report, all := enrich.DiscoverRFDsAt(t, rfdMinConfidence, clamsMinConfidence)
			rep.RFDs = append(rep.RFDs, report...)
			constraints[i] = clean.ConstraintsOf(all)
		}},
		{"clams", func(i int, t *table.Table) { rep.CleanViolations += clean.CountViolations(t, constraints[i]) }},
	}
	for _, st := range stages {
		err := l.timeStage(st.name, func() error {
			for i, t := range tables {
				if err := ctxErr(ctx); err != nil {
					return err
				}
				st.run(i, t)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	rep.Categories = knn.Categories()
	return nil
}

// timeStage runs one stage of a maintenance pass and records its
// duration in the stage histogram.
func (l *Lake) timeStage(stage string, run func() error) error {
	start := time.Now()
	err := run()
	l.metrics.observeMaintStage(stage, time.Since(start))
	return err
}

// promoteCurated moves every dataset with extracted metadata into the
// curated zone — the full pass's O(placements) rescan.
func (l *Lake) promoteCurated(ctx context.Context) error {
	paths := make([]string, 0)
	for _, pl := range l.Poly.Placements() {
		paths = append(paths, pl.Path)
	}
	return l.promotePaths(ctx, paths)
}

// promotePaths promotes the given datasets into the curated zone when
// they carry extracted metadata. Idempotent (zone moves are map
// updates); datasets without metadata stay raw and are re-audited by
// SwampAudit instead.
func (l *Lake) promotePaths(ctx context.Context, paths []string) error {
	for _, path := range paths {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if _, err := l.GEMMS.Object(path); err == nil {
			_ = l.Handle.MoveZone(path, ZoneCurated)
		}
	}
	return nil
}

// rfdMinConfidence is the confidence a relaxed FD needs to enter a
// maintenance report; clamsMinConfidence the one it needs to become a
// CLAMS constraint.
const (
	rfdMinConfidence   = 0.95
	clamsMinConfidence = 0.9
)

// cleanViolations runs the CLAMS cleaning-function triage over one
// dataset: discover functional denial constraints from the data and
// count the triples violating them.
func cleanViolations(t *table.Table) int {
	return clean.CountViolations(t, clean.DiscoverConstraints(t, clamsMinConfidence))
}

// MaintenanceStatus snapshots the maintenance subsystem: pass counters
// and the last pass summary, plus the scheduler's next firing when
// auto-maintenance is on.
func (l *Lake) MaintenanceStatus() maintain.Status {
	l.mu.RLock()
	st := maintain.Status{
		Running:   l.maintRunning,
		Stale:     l.staleLocked(),
		PassesRun: l.passesRun,
		Failures:  l.maintFailures,
		LastError: l.lastMaintErr,
	}
	if l.lastPass != nil {
		cp := *l.lastPass
		st.LastPass = &cp
	}
	if !l.lastPassTime.IsZero() {
		tt := l.lastPassTime
		st.LastPassTime = &tt
	}
	l.mu.RUnlock()
	st.Covered = l.planner.CoveredCount()
	// A closed lake's scheduler will never fire again; report it as
	// manual mode instead of advertising a stale next-run time.
	if l.sched != nil && !l.sched.Stopped() {
		st.Auto = true
		if nr := l.sched.NextRun(); !nr.IsZero() {
			st.NextRun = &nr
		}
	}
	if l.pers != nil {
		st.Durability = l.pers.status()
	}
	return st
}

// Stale reports whether ingests have happened since the last completed
// maintenance pass (or no pass has run at all).
func (l *Lake) Stale() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.staleLocked()
}

// staleLocked is the staleness definition; l.mu must be held.
func (l *Lake) staleLocked() bool {
	return !l.maintained || l.ingestGen > l.maintainedGen
}

// capK bounds an exploration K by the configured maximum.
func (l *Lake) capK(k int) int {
	if l.maxResults > 0 && (k <= 0 || k > l.maxResults) {
		return l.maxResults
	}
	return k
}

// Explore answers a query-driven discovery request on behalf of a
// user; any registered role may explore.
func (l *Lake) Explore(ctx context.Context, user string, req explore.Request) ([]explore.Result, error) {
	if _, err := l.roleOf(user); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	l.mu.RLock()
	ok := l.maintained
	ex := l.Explorer
	l.mu.RUnlock()
	if !ok {
		return nil, lakeerr.Wrap(lakeerr.CodeUnavailable, ErrNotMaintained)
	}
	req.K = l.capK(req.K)
	res, err := ex.Explore(req)
	if err != nil {
		return nil, lakeerr.Wrap(lakeerr.CodeInvalidQuery, err)
	}
	return res, nil
}

// Query executes a federated query described by one structured
// request — statement plus typed options (ORDER BY keys, row cap,
// fan-in width, explain) — on behalf of a user, and is the single
// query entry point (QuerySQL collects over it). The returned stream
// is pull-based (header from Columns, one row per Next, cancellation
// honored between rows) and carries introspection: Plan() is the typed
// execution plan, Stats() the live per-source execution counters (rows
// pulled, time blocked).
//
// Fan-in is on by default: with Request.FanIn zero, member-store scans
// are drained with one puller per CPU, and an ORDER BY sort stage
// keeps the output order deterministic at any width. FanIn: 1 forces
// the sequential union.
// WithMaxResults composes with the statement's LIMIT and the request's
// Limit — the strictest cap wins and bounds the top-K sort heap, not
// just the rows returned. An explain request (Request.Explain or an
// EXPLAIN statement) plans without executing and records no access.
// Row-level failures carry lakeerr codes; the caller must Close the
// stream.
func (l *Lake) Query(ctx context.Context, user string, req query.Request) (*query.RowStream, error) {
	if _, err := l.roleOf(user); err != nil {
		l.metrics.observeRejected()
		return nil, err
	}
	if l.maxResults > 0 {
		req.Limit = query.CombineLimit(req.Limit, l.maxResults)
	}
	// Stamp the caller's identity so remote hops forward it (X-Lake-User)
	// and member lakes audit the originating user, not a proxy identity.
	req.User = user
	// Admission: acquire a slot (or get shed) before any engine work,
	// and fold the controller's default/maximum deadline and memory
	// budget into the request.
	release := func() {}
	if l.adm != nil {
		ticket, err := l.adm.Admit(ctx, user)
		if err != nil {
			l.metrics.observeRejected()
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// Caller gave up while queued: classify the bare context
				// error like any other cancellation.
				return nil, classifyQueryErr(err)
			}
			// Shed/saturation errors are already typed lakeerr failures
			// carrying Retry-After; re-wrapping would bury the code.
			return nil, err
		}
		release = ticket.Release
		req.Timeout = l.adm.EffectiveTimeout(req.Timeout)
		req.MemoryRows = l.adm.EffectiveMemoryRows(req.MemoryRows)
	}
	// Deadline: bound the open context (tears pullers down) and stamp
	// the stream (deterministic typed error from Next even when the
	// per-call context lacks the deadline).
	cancel := context.CancelFunc(func() {})
	var deadline time.Time
	if req.Timeout > 0 {
		deadline = time.Now().Add(req.Timeout)
		ctx, cancel = context.WithDeadline(ctx, deadline)
	}
	st, err := l.Engine.Query(ctx, req)
	if err != nil {
		cancel()
		release()
		l.metrics.observeRejected()
		return nil, classifyQueryErr(err)
	}
	st.ErrMap = classifyQueryErr
	if !deadline.IsZero() {
		st.SetDeadline(deadline)
	}
	st.OnClose(cancel)
	st.OnClose(release)
	if st.ExplainOnly() && st.Plan().Analyzed == nil {
		// Planning reads catalog shape, not data: nothing to audit, and
		// nothing executes — hand the admission slot back immediately
		// (Release is idempotent, so the OnClose hook firing again is
		// harmless).
		cancel()
		release()
		return st, nil
	}
	if l.metrics != nil {
		// Fold the final execution counters into the registry when the
		// consumer closes the stream — the point where Stats is final.
		// An EXPLAIN ANALYZE already ran to completion inside the
		// engine; fold its analyzed stats immediately instead.
		if a := st.Plan().Analyzed; a != nil {
			l.metrics.observeQuery(st.Plan(), *a, false)
		} else {
			st.OnClose(func() {
				l.metrics.observeQuery(st.Plan(), st.Stats(), st.Err() != nil)
			})
			// Each batch's size and fill ratio is reported as it moves
			// through the pipeline.
			st.OnBatch(l.metrics.observeBatch)
		}
	}
	// The engine already parsed the statement; the plan's source list
	// drives the audit trail, one event for the whole statement.
	var entities []string
	l.mu.RLock()
	for _, sp := range st.Plan().Sources {
		if sp.Store == "remote" {
			// The member lake owns the dataset and records the access
			// itself (the forwarded X-Lake-User keeps the audit on the
			// originating user); a local provenance row would invent an
			// entity this lake has never ingested.
			continue
		}
		name := sp.Source
		if _, rest, ok := strings.Cut(sp.Source, ":"); ok {
			name = rest
		}
		// Queries address model-store names; provenance entities are
		// ingest paths. Resolve through the placement index so the
		// audit trail stays on the dataset.
		entity, ok := l.nameToPath[name]
		if !ok {
			entity = name
		}
		entities = append(entities, entity)
	}
	l.mu.RUnlock()
	// A query whose audit record is dropped still runs (ROADMAP item 9a).
	if ev, _ := l.Tracker.QueryEvent(entities, "sql", user); ev.Kind != "" {
		_ = l.persistRecord(&walRecord{Kind: recAudit, Event: &ev})
	}
	for _, entity := range entities {
		l.logAudit(ctx, "query", entity, user)
	}
	return st, nil
}

// logAudit emits one audit event through the structured logger — the
// request-scoped one when the context carries it (already tagged with
// request_id by the middleware), so the audit row joins its HTTP
// access-log line on request_id.
func (l *Lake) logAudit(ctx context.Context, action, entity, user string) {
	obs.Logger(ctx, l.logger).Info("audit", "action", action, "entity", entity, "user", user)
}

// QuerySQL executes a federated query and materializes the full
// result. It is the thin collector over Query: rows are pulled through
// the streaming pipeline into one table, so the WithMaxResults cap
// bounds the work done, not just the rows returned. Like every Query
// request, fan-in is on by default — multi-source results without an
// ORDER BY arrive in arrival order, not source-concatenation order;
// add an ORDER BY (or call Query with FanIn: 1) where row order
// matters. EXPLAIN statements have no row result here; use Query.
func (l *Lake) QuerySQL(ctx context.Context, user, sql string) (*table.Table, error) {
	st, err := l.Query(ctx, user, query.Request{SQL: sql})
	if err != nil {
		return nil, err
	}
	if st.ExplainOnly() {
		// Zero rows would read as an empty result.
		_ = st.Close()
		return nil, lakeerr.Errorf(lakeerr.CodeInvalidQuery,
			"core: EXPLAIN has no row result on this endpoint; use Lake.Query and read Plan()")
	}
	t, err := query.Collect(ctx, st)
	if err != nil {
		return nil, classifyQueryErr(err)
	}
	return t, nil
}

// classifyQueryErr maps engine failures onto the taxonomy: syntax
// errors, an unknown source prefix among them, are invalid queries,
// missing sources/tables are not-found, a blown memory budget is
// resource-exhausted, a missed deadline is deadline-exceeded, and
// cancellation is unavailable. An error already carrying a
// classification — the remote client decodes member error envelopes
// into typed errors — passes through so the member's verdict
// (unauthorized, not_found, unavailable, ...) survives the hop.
func classifyQueryErr(err error) error {
	var typed *lakeerr.Error
	if errors.As(err, &typed) {
		return err
	}
	switch {
	case errors.Is(err, query.ErrSyntax):
		return lakeerr.Wrap(lakeerr.CodeInvalidQuery, err)
	case errors.Is(err, query.ErrUnknownSource), errors.Is(err, polystore.ErrNoTable):
		return lakeerr.Wrap(lakeerr.CodeNotFound, err)
	case errors.Is(err, query.ErrBudgetExceeded):
		return lakeerr.Wrap(lakeerr.CodeResourceExhausted, err)
	case errors.Is(err, context.DeadlineExceeded):
		return lakeerr.Wrap(lakeerr.CodeDeadlineExceeded, err)
	case errors.Is(err, context.Canceled):
		return lakeerr.Wrap(lakeerr.CodeUnavailable, err)
	default:
		return lakeerr.Wrap(lakeerr.CodeInternal, err)
	}
}

// Metadata returns the GEMMS metadata object of a dataset.
func (l *Lake) Metadata(ctx context.Context, id string) (*metamodel.MetadataObject, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	obj, err := l.GEMMS.Object(id)
	if err != nil {
		return nil, lakeerr.Wrap(lakeerr.CodeNotFound, err)
	}
	return obj, nil
}

// Audit returns the access log of an entity; only the governance role
// may audit (Sec. 3.3's governance, risk and compliance team).
func (l *Lake) Audit(ctx context.Context, user, entity string) ([]provenance.Event, error) {
	role, err := l.roleOf(user)
	if err != nil {
		return nil, err
	}
	if role != RoleGovernance {
		return nil, lakeerr.Errorf(lakeerr.CodeUnauthorized, "%w: %s needs %s role", ErrNotAuthorized, user, RoleGovernance)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return l.Tracker.AccessLog(entity), nil
}

// Annotate attaches a semantic term to a dataset element; only
// curators (information curators of Sec. 3.3) may annotate.
func (l *Lake) Annotate(ctx context.Context, user, dataset, element, term string) error {
	role, err := l.roleOf(user)
	if err != nil {
		return err
	}
	if role != RoleCurator {
		return lakeerr.Errorf(lakeerr.CodeUnauthorized, "%w: %s needs %s role", ErrNotAuthorized, user, RoleCurator)
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if err := l.GEMMS.Annotate(dataset, element, term); err != nil {
		return lakeerr.Wrap(lakeerr.CodeNotFound, err)
	}
	return nil
}

// SwampReport is the result of the swamp-guard check: without metadata
// and governance a lake degenerates into a data swamp (Gartner,
// Sec. 2.2).
type SwampReport struct {
	Datasets int
	// WithMetadata counts datasets with a registered metadata object.
	WithMetadata int
	// Swamp lists datasets lacking metadata.
	Swamp []string
}

// Healthy reports whether every dataset carries metadata.
func (r SwampReport) Healthy() bool { return len(r.Swamp) == 0 }

// SwampAudit audits metadata coverage across the lake.
func (l *Lake) SwampAudit(ctx context.Context) (SwampReport, error) {
	if err := ctxErr(ctx); err != nil {
		return SwampReport{}, err
	}
	rep := SwampReport{Swamp: []string{}}
	for _, pl := range l.Poly.Placements() {
		rep.Datasets++
		if obj, err := l.GEMMS.Object(pl.Path); err == nil && hasRealMetadata(obj) {
			rep.WithMetadata++
		} else {
			rep.Swamp = append(rep.Swamp, pl.Path)
		}
	}
	sort.Strings(rep.Swamp)
	return rep, nil
}

// hasRealMetadata reports whether extraction produced more than the
// trivial size/format properties: a schema, a structure tree, semantic
// tags, or content properties.
func hasRealMetadata(obj *metamodel.MetadataObject) bool {
	if len(obj.Attributes) > 0 || obj.Structure != nil || len(obj.Semantics) > 0 {
		return true
	}
	for k := range obj.Properties {
		if k != "size" && k != "format" {
			return true
		}
	}
	return false
}

// RelatedTables is a convenience shortcut to populate-mode exploration.
// The role check runs before the table lookup so unregistered callers
// cannot probe which tables exist.
func (l *Lake) RelatedTables(ctx context.Context, user, tableName string, k int) ([]explore.Result, error) {
	if _, err := l.roleOf(user); err != nil {
		return nil, err
	}
	return l.exploreStored(ctx, user, tableName, explore.Request{Mode: explore.ModePopulate, K: k})
}

// exploreStored answers req with the stored relational table name as
// its query table, read in place under the store's read lock instead of
// copied. A missing table is CodeNotFound.
func (l *Lake) exploreStored(ctx context.Context, user, name string, req explore.Request) ([]explore.Result, error) {
	var res []explore.Result
	err := l.Poly.Rel.View(name, func(t *table.Table) error {
		req.Query = t
		var err error
		res, err = l.Explore(ctx, user, req)
		return err
	})
	if errors.Is(err, polystore.ErrNoTable) {
		return nil, lakeerr.Wrap(lakeerr.CodeNotFound, err)
	}
	return res, err
}

// Lineage answers upstream provenance for a dataset.
func (l *Lake) Lineage(ctx context.Context, entity string) ([]string, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	up, err := l.Tracker.Upstream(entity)
	if err != nil {
		return nil, lakeerr.Wrap(lakeerr.CodeNotFound, err)
	}
	return up, nil
}

// Derive records a derivation and stores the derived table
// relationally, keeping provenance consistent with storage. Deriving
// onto a name the lake holds, or one an in-flight write holds, is a
// conflict. Like Ingest, the derive is prepared off to the side, logged
// as one WAL record carrying its events, then published; if that record
// cannot be logged, nothing is published — no table, no name, no
// lineage — and the derive is unavailable.
func (l *Lake) Derive(ctx context.Context, user, activity string, inputs []string, output *table.Table) error {
	if _, err := l.roleOf(user); err != nil {
		return err
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	name := output.Name
	if err := l.reserve("", name); err != nil {
		return err
	}
	defer l.release("", name)
	if err := l.conflict("", name); err != nil {
		return err
	}
	// The output is stored as a CSV segment the way Ingest stores its
	// bytes.
	seg, err := l.putSegment([]byte(table.ToCSV(output)))
	if err != nil {
		return err
	}
	rec := walRecord{
		Kind: recDerive, Name: name, Activity: activity, User: user, Inputs: append([]string(nil), inputs...), Segment: seg,
		Events: provenance.DeriveEvents(activity, "lake", user, inputs, name),
	}
	// The store keeps the table it is given; the caller keeps output.
	t := output.Clone()
	err = l.persistThen(&rec, func() { l.publishDerive(&rec, t) })
	if err != nil {
		l.dropSegment(seg)
		return err
	}
	l.logAudit(ctx, "derive", name, user)
	return nil
}

// publishDerive stores a derived table and updates the bookkeeping —
// the shared publish of live Derive and persistence replay.
func (l *Lake) publishDerive(rec *walRecord, output *table.Table) {
	l.Poly.Rel.Create(output)
	l.mu.Lock()
	// Register the derived table under its own name so Ingest's
	// collision guard also protects it from basename clashes, and bump
	// the ingest generation: the new table is unindexed until the next
	// Maintain pass, so the lake is stale.
	l.nameToPath[rec.Name] = rec.Name
	l.ingestGen++
	l.putEntry(rec, false)
	l.mu.Unlock()
	// Derived tables are query outputs over already-indexed data; their
	// columns shift the corpus statistics the discovery indexes were
	// trained on (D3L's corpus-trained embeddings), so the next pass
	// rebuilds from scratch instead of approximating an incremental add.
	l.planner.ForceFull("derive")
}

// Evict removes an ingested dataset from the lake: raw bytes, parsed
// model-store form, catalog entry, metadata graph, and its contribution
// to the discovery indexes. The index updates are in-place, so the next
// maintenance pass stays incremental — eviction no longer forces a full
// rebuild. Only curators and operations may evict; the removal is
// recorded in provenance as a discard event and in the WAL. Evicting a
// path an in-flight write holds is a conflict. The record is logged
// before anything is removed: if it cannot be, the evict is unavailable
// and the dataset stays, live and after a reopen.
func (l *Lake) Evict(ctx context.Context, user, path string) error {
	role, err := l.roleOf(user)
	if err != nil {
		return err
	}
	if role != RoleCurator && role != RoleOperations {
		return lakeerr.Errorf(lakeerr.CodeUnauthorized,
			"%w: %s needs %s or %s role", ErrNotAuthorized, user, RoleCurator, RoleOperations)
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if err := l.reserve(path, ""); err != nil {
		return err
	}
	defer l.release(path, "")
	// maintMu keeps a maintenance pass from indexing the dataset
	// mid-removal.
	l.maintMu.Lock()
	defer l.maintMu.Unlock()
	if _, ok := l.Poly.PlacementOf(path); !ok {
		return lakeerr.Errorf(lakeerr.CodeNotFound, "core: no dataset at %s", path)
	}
	ev := provenance.DiscardEvent(path, "lake", user)
	var evictErr error
	err = l.persistThen(&walRecord{Kind: recEvict, Path: path, User: user, Event: &ev},
		func() { evictErr = l.evictLocked(path) })
	if err == nil {
		err = evictErr
	}
	if err != nil {
		return err
	}
	l.logAudit(ctx, "evict", path, user)
	return nil
}

// evictLocked removes the dataset everywhere — the shared publish of
// live Evict and persistence replay. In live operation maintMu must be
// held and the path reserved; replay runs it before the lake is shared,
// lockless.
func (l *Lake) evictLocked(path string) error {
	pl, ok := l.Poly.PlacementOf(path)
	if !ok {
		return lakeerr.Errorf(lakeerr.CodeNotFound, "core: no dataset at %s", path)
	}
	name := pl.Name()
	if err := l.Poly.Remove(path); err != nil {
		return lakeerr.Wrap(lakeerr.CodeInternal, err)
	}
	l.GEMMS.Remove(path)
	l.Handle.Remove(path)
	l.mu.Lock()
	if name != "" {
		delete(l.nameToPath, name)
	}
	l.dropEntry(entryKey{path: path}, "")
	l.pendingPromote = slices.DeleteFunc(l.pendingPromote, func(p string) bool { return p == path })
	ex := l.Explorer
	l.mu.Unlock()
	if name != "" {
		// In-place index removal: the Explorer, the planner's coverage,
		// and DS-kNN each drop the dataset so the next pass does not fall
		// back to a full rebuild. No generation bump — nothing new needs
		// indexing.
		ex.Remove(name)
		l.planner.Evict(name)
		l.knn.Remove(name)
	}
	return nil
}

// TaskSearch is a convenience shortcut for Juneau-style task
// exploration.
func (l *Lake) TaskSearch(ctx context.Context, user, tableName string, task discovery.SearchTask, k int) ([]explore.Result, error) {
	if _, err := l.roleOf(user); err != nil {
		return nil, err
	}
	return l.exploreStored(ctx, user, tableName, explore.Request{Mode: explore.ModeTask, Task: task, K: k})
}
