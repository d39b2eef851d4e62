// Package golake is a from-scratch, stdlib-only Go data lake framework
// reproducing the function-oriented architecture of "Data Lakes: A
// Survey of Functions and Systems" (Hai, Koutras, Quix, Jarke; ICDE
// 2024 extended abstract / arXiv:2106.09592).
//
// The survey classifies a decade of data lake systems into a
// three-tier architecture — ingestion, maintenance, exploration over a
// polystore storage tier (its Fig. 2) — with eleven functions (its
// Table 1). This package is the public facade over one working
// implementation of every function, each following a representative
// published system:
//
//	storage      polystore routing over file/KV/document/graph stores
//	ingestion    metadata extraction (GEMMS, DATAMARAN) and
//	             modeling (GEMMS, HANDLE)
//	maintenance  organization (GOODS, DS-kNN), discovery (JOSIE,
//	             Aurum, D3L, PEXESO, Juneau, DLN), integration
//	             (Constance, ALITE), enrichment (Constance's RFDs),
//	             cleaning (CLAMS), schema evolution (Klettke et al.),
//	             provenance (GOODS/CoreDB/Suriarachchi)
//	exploration  the survey's three query-driven discovery modes and
//	             federated SQL over the polystore (Constance, CoreDB,
//	             Ontario, Squerall)
//
// Every operation takes a context.Context: cancel it and long-running
// maintenance or query work aborts mid-flight. Failures carry typed
// codes from the lakeerr package, so callers classify them with
// lakeerr.CodeOf / errors.As instead of matching message strings.
//
// Quickstart:
//
//	ctx := context.Background()
//	lake, _ := golake.Open(dir, golake.WithMaxResults(1000))
//	lake.AddUser("dana", golake.RoleDataScientist)
//	lake.IngestBatch(ctx, "dana", []golake.IngestItem{
//		{Path: "raw/orders.csv", Data: csvBytes, Source: "erp"},
//	})
//	lake.Maintain(ctx)
//	related, _ := lake.RelatedTables(ctx, "dana", "orders", 5)
//	rows, err := lake.QuerySQL(ctx, "dana", "SELECT id, total FROM rel:orders WHERE total > 10")
//	if lakeerr.IsInvalidQuery(err) { /* bad SQL, not a lake failure */ }
//
// # Querying
//
// Lake.Query is the one federated-query entry point: a structured
// QueryRequest (statement plus typed options) in, a streaming
// RowStream out. Execution is a pull-based iterator pipeline —
// per-source scans feed a union-merge with predicates, projection,
// ORDER BY and LIMIT as stages — so memory stays bounded by rows in
// flight (plus, when sorting under a LIMIT, a top-K heap of at most
// LIMIT rows):
//
//	st, err := lake.Query(ctx, "dana", golake.QueryRequest{
//		SQL:   "SELECT city, price FROM rel:hotels_a, doc:hotels_b WHERE price > 40",
//		Order: []golake.OrderKey{{Column: "price", Desc: true}},
//		Limit: 10,
//	})
//	if err != nil {
//		return err
//	}
//	defer st.Close()
//	for {
//		row, err := st.Next(ctx)
//		if errors.Is(err, io.EOF) {
//			break
//		}
//		if err != nil {
//			return err
//		}
//		use(row) // []string ordered like st.Columns()
//	}
//	fmt.Println(st.Stats()) // per-source rows pulled + time blocked
//
// Fan-in is on by default: member-store sources are drained
// concurrently (one puller per CPU) behind bounded backpressure
// buffers, so wall-clock tracks the slowest source instead of the sum
// of sources. An ORDER BY — in the SQL or via QueryRequest.Order —
// makes the output order deterministic at any width (numeric-aware
// keys plus a whole-row tiebreak); without one, rows interleave in
// arrival order. QueryRequest.FanIn pins the width (1 forces the
// sequential source-concatenation union), WithFanIn pins a lake-wide
// default, and QueryRequest.BufferRows sizes the per-source window.
//
// Every query runs on one columnar batch pipeline, whatever mix of
// stores its FROM list names — column vectors moved ~1024 rows at a
// time, vectorized filtering, fan-in shipping whole batches; rows are
// materialized only at the output. QueryRequest.BatchRows sizes the
// batches.
//
// Plan introspection rides on the same request: EXPLAIN SELECT ... (or
// QueryRequest.Explain) returns a rowless stream whose Plan() carries
// the per-source access paths, pushed-down predicates, fan-in width
// and sort strategy; every executed stream exposes the same Plan()
// plus live Stats().
//
// QuerySQL is the materializing collector over the same pipeline.
//
// Over REST, POST /v1/query accepts {"sql", "order", "limit", "fanin",
// "buffer_rows", "batch_rows", "explain"} and streams chunked NDJSON when the
// request carries Accept: application/x-ndjson (header line, one JSON
// row per line, a {"stats":{...}} trailer on clean end, a final
// {"error":{...}} line on mid-stream failure). With "explain": true it
// returns {"plan": {...}} instead of rows.
//
// # Distributed federation
//
// A lake can federate other lakes as remote member stores: register
// each member with WithRemoteStore and address its datasets as
// "member:dataset" (or enable WithRemoteRouting to resolve bare names
// through a consistent-hash ring over the members). The remote hop
// speaks the same POST /v1/query NDJSON protocol any client does, with
// predicates, projections, and ORDER BY+LIMIT pushed down to the
// member; to the fan-in machinery a remote lake is just a slow member
// store, so scatter-gather across N members is the ordinary parallel
// union. QueryRequest.Shards additionally range-partitions each local
// relational scan into K cursors drained through the same fan-in.
// Remote failures keep their lakeerr codes end to end, and a connection
// dropped mid-stream surfaces as a typed unavailable error, never a
// silent short result:
//
//	lake, _ := golake.Open(dir,
//		golake.WithRemoteStore("east", "http://east.lake:8080",
//			golake.RemoteOptions{Timeout: 5 * time.Second, Token: eastToken}),
//		golake.WithRemoteStore("west", "http://west.lake:8080",
//			golake.RemoteOptions{Timeout: 5 * time.Second, Token: westToken}))
//	rows, _ := lake.QuerySQL(ctx, "dana",
//		"SELECT city, price FROM east:hotels, west:hotels WHERE price > 40")
//
// Member lakes authenticate the hop with bearer tokens (Lake.AddToken
// registers one; only its sha256 digest is stored) and audit the
// originating user via the forwarded X-Lake-User identity.
//
// # Background maintenance
//
// The manual Maintain call above can be replaced by an always-on
// scheduler, the operating mode of continuously-running catalog
// systems (GOODS-style post-hoc cataloging): open the lake with
// WithAutoMaintain and ingested data becomes explorable on its own —
// no operator in the loop. Passes are incremental, so a new dataset in
// a maintained lake of N costs O(1 dataset) to index, not O(N):
//
//	lake, _ := golake.Open(dir, golake.WithAutoMaintain(5*time.Second))
//	defer lake.Close()
//	lake.AddUser("dana", golake.RoleDataScientist)
//	lake.Ingest(ctx, "raw/orders.csv", csvBytes, "erp", "dana")
//	// ...within an interval the scheduler indexes it:
//	related, _ := lake.RelatedTables(ctx, "dana", "orders", 5)
//
// Lake.MaintenanceStatus snapshots the subsystem (passes run,
// failures, last pass, next firing); Lake.MaintainIncremental runs one
// incremental pass by hand; Lake.TriggerMaintain is the conflict-aware
// variant behind POST /v1/maintenance.
//
// The same surface is served over REST by Lake.HTTPHandler: a
// versioned /v1 API with a structured error envelope (see
// internal/core's route table), including GET/POST /v1/maintenance for
// the maintenance subsystem. Every route lives under /v1, and list
// endpoints page by cursor.
//
// # Durability & recovery
//
// A lake is in-memory by default, raw bytes included, and loses
// everything on restart; it writes nothing under its directory.
// WithPersistence makes the whole logical state durable through a
// pluggable backend:
//
//	backend, _ := golake.NewLocalBackend(
//		filepath.Join(dir, ".golake"), golake.WithSync(golake.SyncAlways))
//	lake, _ := golake.Open(dir, golake.WithPersistence(backend))
//	defer lake.Close() // flushes a final snapshot
//
// An ingested or derived table's bytes are stored once, raw, as an
// immutable checksummed segment before the operation commits. Every
// mutating operation (user registration, ingest, derive, evict,
// provenance event, maintenance coverage) then appends one checksummed
// record to a write-ahead log, naming its segment rather than carrying
// its bytes; when the log outgrows the WithSnapshotEvery threshold —
// and on Close — a manifest of the full logical state is installed
// atomically and the log truncated. Reopen replays manifest + WAL
// tail, reading each table from its segment: a crash at any byte
// boundary loses at most the torn tail record (dropped with a logged
// warning, never a failed open), and a previously maintained lake
// comes back with its exploration indexes rebuilt and its first
// scheduled pass planning incrementally rather than re-indexing the
// corpus. The fsync policy
// is the backend's: SyncAlways makes every record and segment
// crash-durable, SyncNone (the default) leaves flushing to the OS. GET
// /v1/maintenance reports the durability state (backend, WAL size,
// segments, last snapshot, replay stats) alongside the pass counters.
package golake

import (
	"log/slog"
	"time"

	"golake/internal/admission"
	"golake/internal/core"
	"golake/internal/discovery"
	"golake/internal/explore"
	"golake/internal/maintain"
	"golake/internal/obs"
	"golake/internal/persist"
	"golake/internal/query"
	"golake/internal/remote"
	"golake/internal/table"
)

// Lake is an assembled data lake; see core.Lake for the full API.
type Lake = core.Lake

// Role is a lake user role (Sec. 3.3 of the survey).
type Role = core.Role

// User roles.
const (
	RoleDataScientist = core.RoleDataScientist
	RoleCurator       = core.RoleCurator
	RoleGovernance    = core.RoleGovernance
	RoleOperations    = core.RoleOperations
)

// Zones datasets progress through.
const (
	ZoneRaw     = core.ZoneRaw
	ZoneCurated = core.ZoneCurated
	ZoneTrusted = core.ZoneTrusted
)

// Table is the tabular dataset model.
type Table = table.Table

// QueryRequest is the unified federated-query request consumed by
// Lake.Query: one statement plus typed execution options (ORDER BY
// keys, row cap, fan-in width, buffer window, explain).
type QueryRequest = query.Request

// OrderKey is one ORDER BY sort key of a QueryRequest.
type OrderKey = query.OrderKey

// RowStream is the result of Lake.Query: a pull-based row iterator
// (Columns/Next/Close) plus plan introspection (Plan) and live
// per-source execution stats (Stats).
type RowStream = query.RowStream

// QueryPlan is the typed execution plan reported by EXPLAIN and
// RowStream.Plan: per-source access paths, pushed-down predicates,
// fan-in width, sort strategy.
type QueryPlan = query.Plan

// SourcePlan is one FROM item's access path within a QueryPlan.
type SourcePlan = query.SourcePlan

// ExecStats snapshots a stream's execution counters (RowStream.Stats).
type ExecStats = query.ExecStats

// SourceStats is one source's rows-pulled / time-blocked counters.
type SourceStats = query.SourceStats

// RowIterator is the pull-based row stream interface every pipeline
// stage implements; RowStream satisfies it.
type RowIterator = query.RowIterator

// Row is one streamed result record.
type Row = query.Row

// IngestItem is one object of an IngestBatch bulk load.
type IngestItem = core.IngestItem

// ExploreRequest is a query-driven discovery request.
type ExploreRequest = explore.Request

// ExploreResult is one ranked discovery answer.
type ExploreResult = explore.Result

// Exploration modes (Sec. 7.1).
const (
	ModeJoinColumn = explore.ModeJoinColumn
	ModePopulate   = explore.ModePopulate
	ModeTask       = explore.ModeTask
)

// SearchTask selects Juneau-style task-specific relatedness.
type SearchTask = discovery.SearchTask

// Data-science search tasks.
const (
	TaskAugment  = discovery.TaskAugment
	TaskFeatures = discovery.TaskFeatures
	TaskClean    = discovery.TaskClean
)

// MaintenanceReport summarizes one maintenance pass.
type MaintenanceReport = core.MaintenanceReport

// MaintenanceStatus is the maintenance-subsystem snapshot returned by
// Lake.MaintenanceStatus and served by GET /v1/maintenance.
type MaintenanceStatus = maintain.Status

// DurabilityStatus reports the persistence backend's health inside
// MaintenanceStatus (WAL size, last snapshot, open-time replay stats).
type DurabilityStatus = maintain.DurabilityStatus

// ReplayStats summarizes one open-time crash recovery.
type ReplayStats = maintain.ReplayStats

// MetricsRegistry is the lake's metric registry, returned by
// Lake.Metrics (nil with WithMetrics(false)). WritePrometheus renders
// it in the Prometheus text exposition format — the same bytes GET
// /v1/metrics serves.
type MetricsRegistry = obs.Registry

// PersistenceBackend is the pluggable durability store a lake writes
// its WAL, manifest snapshots and table segments through; see
// NewMemoryBackend and NewLocalBackend for the built-ins. The
// interface is storage-agnostic — a SQLite- or object-store-backed
// implementation plugs in the same way.
type PersistenceBackend = persist.Backend

// MemoryBackend keeps WAL, snapshot and segments in process memory —
// durability across lake generations sharing the backend value, not
// across process restarts. Useful for tests and as the minimal Backend
// reference implementation.
type MemoryBackend = persist.Memory

// LocalBackend persists WAL, snapshot and segments as files in a local
// directory (wal.log, snapshot, segments/), with atomic snapshot
// installation and torn-tail-tolerant log recovery.
type LocalBackend = persist.Local

// LocalBackendOption configures NewLocalBackend (see WithSync).
type LocalBackendOption = persist.LocalOption

// SyncPolicy selects when the local backend fsyncs WAL appends and
// segment puts.
type SyncPolicy = persist.Sync

// Fsync policies for NewLocalBackend.
const (
	// SyncNone leaves flushing to the OS: fastest, loses recent records
	// on power failure (not on process crash).
	SyncNone = persist.SyncNone
	// SyncAlways fsyncs every WAL append, and every segment put with its
	// directory: every acknowledged operation survives power failure.
	SyncAlways = persist.SyncAlways
)

// NewMemoryBackend creates an in-memory persistence backend.
func NewMemoryBackend() *MemoryBackend { return persist.NewMemory() }

// NewLocalBackend creates a directory-backed persistence backend; the
// directory is created if needed. Point it at <lakedir>/.golake — the
// name the file store reserves — to keep a lake and its durability
// files together.
func NewLocalBackend(dir string, opts ...LocalBackendOption) (*LocalBackend, error) {
	return persist.NewLocal(dir, opts...)
}

// WithSync sets the local backend's fsync policy (default SyncNone).
func WithSync(s SyncPolicy) LocalBackendOption { return persist.WithSync(s) }

// Option configures an assembled lake (see WithClock, WithPushdown,
// WithMaxResults, WithLogger, WithAutoMaintain, WithPersistence).
type Option = core.Option

// WithClock substitutes the lake's time source (tests, replays).
func WithClock(clock func() time.Time) Option { return core.WithClock(clock) }

// WithPushdown toggles predicate/projection pushdown in the federated
// query engine (on by default).
func WithPushdown(enabled bool) Option { return core.WithPushdown(enabled) }

// WithMaxResults caps query result rows and exploration K (0 =
// unlimited).
func WithMaxResults(n int) Option { return core.WithMaxResults(n) }

// WithLogger installs a structured logger: one access-log line per
// REST request (request_id included), audit events for query / ingest /
// derive / evict, and persistence + maintenance lifecycle events.
func WithLogger(l *slog.Logger) Option { return core.WithLogger(l) }

// WithMetrics toggles the lake's metric registry (on by default). The
// registry covers the HTTP, query-engine, maintenance, and persistence
// layers and is served in Prometheus text format at GET /v1/metrics;
// Lake.Metrics exposes it in-process. Disabling removes all metric
// bookkeeping and turns the endpoint into a 503.
func WithMetrics(enabled bool) Option { return core.WithMetrics(enabled) }

// WithFanIn pins the lake-wide fan-in default for Lake.Query requests
// that leave QueryRequest.FanIn unset: workers member-store scans
// drained in parallel (1 = sequential union), each buffering roughly
// bufferRows rows ahead of the consumer (0 = default window). Unset,
// requests default to one puller per CPU. Result sets never change
// with the width; without an ORDER BY the interleaving of rows across
// sources does (arrival order), and a LIMIT keeps whichever rows
// arrived first. With an ORDER BY the output is deterministic at any
// width.
func WithFanIn(workers, bufferRows int) Option { return core.WithFanIn(workers, bufferRows) }

// WithAutoMaintain starts a background maintenance scheduler: every
// interval the lake checks for new data and runs an incremental
// maintenance pass, so ingests become explorable without a manual
// Maintain call. Call Lake.Close to stop it.
func WithAutoMaintain(interval time.Duration) Option { return core.WithAutoMaintain(interval) }

// WithPersistence makes the lake durable through the given backend:
// Open replays its snapshot + WAL before serving, every mutating
// operation is logged, and Close flushes a final snapshot. See the
// "Durability & recovery" section of the package documentation.
func WithPersistence(backend PersistenceBackend) Option { return core.WithPersistence(backend) }

// WithSnapshotEvery sets the WAL size (bytes) that triggers a
// snapshot + log truncation (default 4 MiB; 0 disables size-triggered
// snapshots, leaving only the Close-time flush).
func WithSnapshotEvery(walBytes int64) Option { return core.WithSnapshotEvery(walBytes) }

// AdmissionConfig configures the admission controller WithAdmission
// installs: per-user concurrency quotas (MaxConcurrentPerUser) with
// bounded-wait queueing (MaxQueuedPerUser, MaxQueueWait), per-user
// token-bucket rate limits (RatePerSec, Burst), a global in-flight
// ceiling (MaxInFlight), default and maximum query deadlines
// (DefaultTimeout, MaxTimeout) and memory budgets (DefaultMemoryRows,
// MaxMemoryRows), and the Retry-After hint for shed queries. Zero
// values leave each dimension unenforced.
type AdmissionConfig = admission.Config

// WithAdmission places an admission controller in front of every query
// entry point. Shed queries fail fast with typed lakeerr codes —
// resource_exhausted (HTTP 429 plus Retry-After) for per-user quota or
// rate rejections, unavailable (HTTP 503) at the global ceiling — and
// admitted queries inherit the configured default deadline and memory
// budget unless their QueryRequest says otherwise (requests are clamped
// to the configured maximums either way).
func WithAdmission(cfg AdmissionConfig) Option { return core.WithAdmission(cfg) }

// RetryAfterOf extracts the retry hint from a shed-query error, when
// present.
func RetryAfterOf(err error) (time.Duration, bool) { return admission.RetryAfterOf(err) }

// RemoteOptions tunes one remote member store: per-request Timeout,
// ConnectRetries with capped exponential backoff, the bearer Token the
// hop authenticates with, and an overriding http.Client (tests).
type RemoteOptions = remote.Options

// WithRemoteStore federates another golake into this one as a member
// store named name: queries addressing "name:dataset" stream from the
// member's POST /v1/query endpoint with predicates, projections, and
// ORDER BY+LIMIT pushed down. See the "Distributed federation" section
// of the package documentation.
func WithRemoteStore(name, baseURL string, opts RemoteOptions) Option {
	return core.WithRemoteStore(name, baseURL, opts)
}

// WithRemoteRouting routes bare dataset names that resolve to no local
// store through a consistent-hash ring over the registered remote
// members, so callers need not name the member holding a dataset.
func WithRemoteRouting(enabled bool) Option { return core.WithRemoteRouting(enabled) }

// HashRing is the consistent-hash placement helper the router uses;
// exported for planning dataset placement across member lakes.
type HashRing = remote.Ring

// NewHashRing builds a consistent-hash ring over member names with
// vnodes virtual nodes per member (<= 0 uses the default, 64). The same
// member set always yields the same placements, and placements mostly
// survive membership changes.
func NewHashRing(members []string, vnodes int) *HashRing {
	return remote.NewRing(members, vnodes)
}

// Open assembles a data lake rooted at dir.
func Open(dir string, opts ...Option) (*Lake, error) { return core.Open(dir, opts...) }

// ParseCSV parses CSV text into a Table.
func ParseCSV(name, content string) (*Table, error) { return table.ParseCSV(name, content) }

// ToCSV renders a Table as CSV.
func ToCSV(t *Table) string { return table.ToCSV(t) }
