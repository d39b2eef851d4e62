package core

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"golake/internal/maintain"
	"golake/internal/obs"
	"golake/internal/persist"
	"golake/internal/query"
)

// fanInBuckets bracket the plan's effective union width (1 =
// sequential) up to the request cap.
var fanInBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// heapRowBuckets bracket the sort stage's heap high-water mark.
var heapRowBuckets = []float64{10, 100, 1000, 10000, 100000, 1000000}

// batchRowBuckets bracket the logical rows per columnar batch.
var batchRowBuckets = []float64{1, 8, 64, 256, 512, 1024, 4096, 16384, 65536}

// fillRatioBuckets bracket how full each columnar batch is relative to
// the configured batch size (1.0 = every batch at capacity; low values
// signal selective filters or fragmented sources).
var fillRatioBuckets = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1}

// queueWaitBuckets bracket the time a query spends queued for an
// admission slot, in seconds.
var queueWaitBuckets = []float64{.001, .005, .01, .05, .1, .5, 1, 5, 10}

// admissionUserCardinality caps the distinct user label values the
// per-user admission series may hold; users beyond the first N fold
// into "other", so a tenant sweep cannot blow the exposition up.
const admissionUserCardinality = 10

// lakeMetrics is the lake's metric surface: one obs.Registry plus the
// pre-registered series every layer records into. All series share the
// golake_ prefix; /v1/metrics renders the registry.
type lakeMetrics struct {
	reg *obs.Registry

	// HTTP middleware.
	httpRequests *obs.CounterVec // route, method, class
	httpDuration *obs.HistogramVec
	httpInFlight *obs.Gauge

	// Query engine, folded from RowStream.Stats at stream close.
	queryTotal      *obs.CounterVec // outcome: ok | error | rejected
	queryRowsOut    *obs.Counter
	queryFanIn      *obs.Histogram
	querySourceRows *obs.CounterVec // source
	querySourceBlkd *obs.CounterVec // source
	querySortHeap   *obs.Histogram
	queryBatchRows  *obs.Histogram
	queryBatchFill  *obs.Histogram

	// Admission control, per user (bounded cardinality: the first
	// admissionUserCardinality users keep their own label, the rest
	// fold into "other").
	admAdmitted  *obs.CounterVec // user
	admQueued    *obs.CounterVec // user
	admShed      *obs.CounterVec // user
	admQueueWait *obs.Histogram
	admInFlight  *obs.GaugeVec // user
	admUserMu    sync.Mutex
	admUsers     map[string]bool

	// Maintenance.
	maintPasses   *obs.CounterVec // mode
	maintFailures *obs.Counter
	maintDuration *obs.Histogram
	maintDatasets *obs.Counter
	maintRetries  *obs.Counter
	maintStage    *obs.HistogramVec // stage

	// Remote federation: per-member client telemetry, recorded through
	// the remote.Observer the lake installs on each member client.
	remoteRequests *obs.CounterVec // member, outcome
	remoteRows     *obs.CounterVec // member
	remoteRetries  *obs.CounterVec // member
	remoteDuration *obs.HistogramVec

	// Persistence.
	walAppends      *obs.Counter
	walAppendBytes  *obs.Counter
	walAppendDur    *obs.Histogram
	walRetries      *obs.Counter
	walDropped      *obs.Counter
	walDegraded     *obs.Gauge
	checkpoints     *obs.Counter
	checkpointDur   *obs.Histogram
	segmentPutDur   *obs.Histogram
	segmentBytes    *obs.Gauge
	fsyncs          *obs.CounterVec // file
	fsyncMu         sync.Mutex
	replaySnapshot  *obs.Gauge
	replayWALRecs   *obs.Gauge
	replayWALSkip   *obs.Gauge
	replayTornBytes *obs.Gauge
	replayDuration  *obs.Gauge
	replayIndexes   *obs.Gauge

	// Resident memory, computed from the structures' own counts.
	residentBytes *obs.GaugeVec // structure

	// Go runtime gauges, read from runtime/metrics at scrape time.
	goHeapBytes   *obs.Gauge
	goGCCycles    *obs.Gauge
	goGCPauseSecs *obs.Gauge
	goGoroutines  *obs.Gauge
}

func newLakeMetrics() *lakeMetrics {
	r := obs.NewRegistry()
	return &lakeMetrics{
		reg: r,
		httpRequests: r.CounterVec("golake_http_requests_total",
			"HTTP requests served, by route, method, and status class.",
			"route", "method", "class"),
		httpDuration: r.HistogramVec("golake_http_request_duration_seconds",
			"HTTP request latency in seconds, by route.", nil, "route"),
		httpInFlight: r.Gauge("golake_http_in_flight_requests",
			"HTTP requests currently being served."),
		queryTotal: r.CounterVec("golake_query_total",
			"Queries by outcome: ok, error (failed mid-stream), rejected (refused before opening).",
			"outcome"),
		queryRowsOut: r.Counter("golake_query_rows_out_total",
			"Rows delivered to query consumers, after sort and limit."),
		queryFanIn: r.Histogram("golake_query_fanin_width",
			"Effective fan-in width per executed query (1 = sequential union).",
			fanInBuckets),
		querySourceRows: r.CounterVec("golake_query_source_rows_total",
			"Rows pulled from each member source across all queries.", "source"),
		querySourceBlkd: r.CounterVec("golake_query_source_blocked_seconds_total",
			"Seconds the pipeline spent blocked waiting on each member source.", "source"),
		querySortHeap: r.Histogram("golake_query_sort_heap_rows",
			"Sort-stage heap high-water mark per sorted query, in rows.",
			heapRowBuckets),
		queryBatchRows: r.Histogram("golake_query_batch_rows",
			"Logical rows per columnar batch moved by the batch pipeline.",
			batchRowBuckets),
		queryBatchFill: r.Histogram("golake_query_batch_fill_ratio",
			"Per-batch fill ratio (logical rows / configured batch size) of the columnar pipeline.",
			fillRatioBuckets),
		admAdmitted: r.CounterVec("golake_admission_admitted_total",
			"Queries admitted by the scheduler, by user (top-N users; the rest fold into \"other\").",
			"user"),
		admQueued: r.CounterVec("golake_admission_queued_total",
			"Queries that waited in the admission queue before a decision, by user.",
			"user"),
		admShed: r.CounterVec("golake_admission_shed_total",
			"Queries rejected by admission control (quota, rate, queue overflow, saturation), by user.",
			"user"),
		admQueueWait: r.Histogram("golake_admission_queue_wait_seconds",
			"Time queries spent queued for an admission slot, in seconds.",
			queueWaitBuckets),
		admInFlight: r.GaugeVec("golake_admission_in_flight",
			"Admitted queries currently executing, by user.",
			"user"),
		admUsers: map[string]bool{},
		maintPasses: r.CounterVec("golake_maintenance_passes_total",
			"Completed maintenance passes by mode (full, incremental).", "mode"),
		maintFailures: r.Counter("golake_maintenance_failures_total",
			"Maintenance passes that failed."),
		maintDuration: r.Histogram("golake_maintenance_pass_duration_seconds",
			"Maintenance pass duration in seconds.", nil),
		maintDatasets: r.Counter("golake_maintenance_datasets_reindexed_total",
			"Datasets (re)indexed by maintenance passes."),
		maintRetries: r.Counter("golake_maintenance_retries_total",
			"Scheduler retries after failed passes (backoff events)."),
		maintStage: r.HistogramVec("golake_maintenance_stage_duration_seconds",
			"Time one maintenance pass spent in each stage, in seconds: explore (discovery indexes), knn (DS-kNN categorisation), rfd (relaxed FDs), clams (cleaning triage), promote (zone promotion), persist (coverage record).",
			nil, "stage"),
		remoteRequests: r.CounterVec("golake_remote_requests_total",
			"Remote member-lake queries by member and outcome (ok, aborted, or the failure's error code).",
			"member", "outcome"),
		remoteRows: r.CounterVec("golake_remote_rows_total",
			"Rows streamed in from each remote member lake.", "member"),
		remoteRetries: r.CounterVec("golake_remote_retries_total",
			"Connect retries against each remote member lake.", "member"),
		remoteDuration: r.HistogramVec("golake_remote_request_duration_seconds",
			"Remote query duration (open through stream end) in seconds, by member.",
			nil, "member"),
		walAppends: r.Counter("golake_wal_appends_total",
			"Records appended to the write-ahead log."),
		walAppendBytes: r.Counter("golake_wal_appended_bytes_total",
			"Bytes appended to the write-ahead log, framing included."),
		walAppendDur: r.Histogram("golake_wal_append_duration_seconds",
			"WAL append latency in seconds; with fsync-per-record this is the fsync latency.",
			nil),
		walRetries: r.Counter("golake_wal_append_retries_total",
			"WAL appends retried after a transient backend failure."),
		walDropped: r.Counter("golake_wal_dropped_records_total",
			"WAL records dropped after exhausting append retries (durability degraded for those records)."),
		walDegraded: r.Gauge("golake_wal_degraded",
			"1 from a WAL record dropped after its retries until the next append lands, else 0: while it is 1, writes are being refused and GET /v1/readyz answers 503."),
		checkpoints: r.Counter("golake_checkpoints_total",
			"Snapshot checkpoints taken (WAL truncations)."),
		checkpointDur: r.Histogram("golake_checkpoint_duration_seconds",
			"Checkpoint (snapshot + truncate) duration in seconds.", nil),
		segmentPutDur: r.Histogram("golake_segment_put_duration_seconds",
			"Segment put latency in seconds; under SyncAlways it includes the file and directory fsyncs.",
			nil),
		segmentBytes: r.Gauge("golake_segment_bytes",
			"Bytes the stored segments hold, framing included."),
		fsyncs: r.CounterVec("golake_fsyncs_total",
			"Fsyncs the persistence backend issued, by file: wal, segment, segment_dir, manifest or manifest_dir. Only the local directory backend fsyncs.",
			"file"),
		replaySnapshot: r.Gauge("golake_replay_snapshot_datasets",
			"Datasets restored from the snapshot at the last open."),
		replayWALRecs: r.Gauge("golake_replay_wal_records",
			"WAL records replayed at the last open."),
		replayWALSkip: r.Gauge("golake_replay_wal_skipped_records",
			"WAL records skipped as unparseable at the last open."),
		replayTornBytes: r.Gauge("golake_replay_torn_bytes",
			"Bytes dropped from a torn WAL tail at the last open."),
		replayDuration: r.Gauge("golake_replay_duration_seconds",
			"How long the last open's recovery took, from reading the snapshot until the discovery indexes were rebuilt, in seconds."),
		replayIndexes: r.Gauge("golake_replay_index_rebuild_seconds",
			"How much of the last open's recovery went to rebuilding the discovery indexes and DS-kNN categories over the restored maintenance coverage, in seconds; 0 when no pass covered the lake."),
		residentBytes: r.GaugeVec("golake_resident_bytes",
			"Bytes a structure holds in memory, computed from its counts: token_sums (the discovery embedding's per-token PPMI sums), after each maintenance pass; doc_columns (the columnar forms document scans read, 0 until a collection's first scan), at each scrape.",
			"structure"),
		goHeapBytes: r.Gauge("golake_go_heap_bytes",
			"Heap bytes held by objects, live or not yet swept (runtime/metrics /memory/classes/heap/objects:bytes)."),
		goGCCycles: r.Gauge("golake_go_gc_cycles",
			"Garbage collection cycles completed since the process started."),
		goGCPauseSecs: r.Gauge("golake_go_gc_pause_seconds",
			"Stop-the-world GC pause time since the process started, in seconds, summed from the runtime's pause histogram at bucket midpoints."),
		goGoroutines: r.Gauge("golake_go_goroutines",
			"Live goroutines."),
	}
}

// runtimeSamples names the runtime/metrics series observeRuntime reads,
// in the order it reads them.
var runtimeSamples = [...]string{
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/sched/goroutines:goroutines",
}

// fsyncCounter is a backend that counts its fsyncs (persist.Local).
type fsyncCounter interface {
	Fsyncs() [len(persist.FsyncFiles)]uint64
}

// observeFsyncs brings golake_fsyncs_total up to the backend's own
// counts. It runs once per scrape, so a write pays only the backend's
// atomic add. The counts are read under the lock, so each scrape reads
// counts no older than the last one's, and the difference it adds is
// never negative and never added twice.
func (m *lakeMetrics) observeFsyncs(b fsyncCounter) {
	m.fsyncMu.Lock()
	defer m.fsyncMu.Unlock()
	n := b.Fsyncs()
	for i, file := range persist.FsyncFiles {
		c := m.fsyncs.With(file)
		c.Add(float64(n[i]) - c.Value())
	}
}

// observeRuntime sets the Go runtime gauges from runtime/metrics. It
// runs once per scrape, so requests pay nothing for them.
func (m *lakeMetrics) observeRuntime() {
	if m == nil {
		return
	}
	var samples [len(runtimeSamples)]metrics.Sample
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	m.goHeapBytes.Set(float64(samples[0].Value.Uint64()))
	m.goGCCycles.Set(float64(samples[1].Value.Uint64()))
	m.goGCPauseSecs.Set(histogramSum(samples[2].Value.Float64Histogram()))
	m.goGoroutines.Set(float64(samples[3].Value.Uint64()))
}

// histogramSum estimates the sum of a runtime histogram's samples from
// its bucket midpoints, or from the finite bound of an open bucket.
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		v := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			v = hi
		case math.IsInf(hi, 1):
			v = lo
		}
		sum += float64(n) * v
	}
	return sum
}

// observeQuery folds one finished stream's stats into the registry:
// outcome, rows out, fan-in width, per-source counters, and the sort
// heap high-water. Called from the stream's close hook.
func (m *lakeMetrics) observeQuery(plan *query.Plan, st query.ExecStats, failed bool) {
	if m == nil {
		return
	}
	outcome := "ok"
	if failed {
		outcome = "error"
	}
	m.queryTotal.With(outcome).Inc()
	m.queryRowsOut.Add(float64(st.RowsOut))
	if plan != nil {
		m.queryFanIn.Observe(float64(plan.FanIn))
	}
	for _, s := range st.Sources {
		if s.Rows > 0 {
			m.querySourceRows.With(s.Source).Add(float64(s.Rows))
		}
		if s.Blocked > 0 {
			m.querySourceBlkd.With(s.Source).Add(s.Blocked.Seconds())
		}
	}
	if st.SortHeapRows > 0 {
		m.querySortHeap.Observe(float64(st.SortHeapRows))
	}
}

// observeBatch records one columnar batch moving through a query
// pipeline: its logical row count and how full it is relative to the
// configured batch size. Installed as the stream's OnBatch hook, so it
// runs on the consumer's goroutine per batch — both series are plain
// histogram observations, cheap enough for that cadence.
func (m *lakeMetrics) observeBatch(rows, capacity int) {
	if m == nil {
		return
	}
	m.queryBatchRows.Observe(float64(rows))
	if capacity > 0 {
		m.queryBatchFill.Observe(float64(rows) / float64(capacity))
	}
}

// observeRejected counts a query refused before a stream opened (parse
// failure, unknown source, authorization).
func (m *lakeMetrics) observeRejected() {
	if m == nil {
		return
	}
	m.queryTotal.With("rejected").Inc()
}

// admissionUser resolves the bounded-cardinality user label: the first
// admissionUserCardinality distinct users keep their own label, later
// ones fold into "other". The mapping is sticky, so a user's inc and
// dec always hit the same series.
func (m *lakeMetrics) admissionUser(user string) string {
	if m == nil {
		return user
	}
	m.admUserMu.Lock()
	defer m.admUserMu.Unlock()
	if m.admUsers[user] {
		return user
	}
	if len(m.admUsers) < admissionUserCardinality {
		m.admUsers[user] = true
		return user
	}
	return "other"
}

// observeAdmitted records one admitted query and bumps its user's
// in-flight gauge.
func (m *lakeMetrics) observeAdmitted(user string) {
	if m == nil {
		return
	}
	u := m.admissionUser(user)
	m.admAdmitted.With(u).Inc()
	m.admInFlight.With(u).Add(1)
}

// observeAdmissionQueued records one query entering the wait queue.
func (m *lakeMetrics) observeAdmissionQueued(user string) {
	if m == nil {
		return
	}
	m.admQueued.With(m.admissionUser(user)).Inc()
}

// observeAdmissionShed records one load-shedding rejection.
func (m *lakeMetrics) observeAdmissionShed(user string) {
	if m == nil {
		return
	}
	m.admShed.With(m.admissionUser(user)).Inc()
}

// observeAdmissionReleased decrements the user's in-flight gauge when
// an admitted query finishes.
func (m *lakeMetrics) observeAdmissionReleased(user string) {
	if m == nil {
		return
	}
	m.admInFlight.With(m.admissionUser(user)).Add(-1)
}

// observeAdmissionWait records the time one query spent queued.
func (m *lakeMetrics) observeAdmissionWait(d time.Duration) {
	if m == nil {
		return
	}
	m.admQueueWait.Observe(d.Seconds())
}

// observeMaintPass records one completed (or failed) maintenance pass.
func (m *lakeMetrics) observeMaintPass(mode string, d time.Duration, datasets int, failed bool) {
	if m == nil {
		return
	}
	if failed {
		m.maintFailures.Inc()
		return
	}
	m.maintPasses.With(mode).Inc()
	m.maintDuration.Observe(d.Seconds())
	m.maintDatasets.Add(float64(datasets))
}

// observeMaintStage records how long one stage of a maintenance pass
// took; each stage is observed once per pass.
func (m *lakeMetrics) observeMaintStage(stage string, d time.Duration) {
	if m == nil {
		return
	}
	m.maintStage.With(stage).Observe(d.Seconds())
}

// observeWALAppend records one WAL append.
func (m *lakeMetrics) observeWALAppend(bytes int, d time.Duration) {
	if m == nil {
		return
	}
	m.walAppends.Inc()
	m.walAppendBytes.Add(float64(bytes))
	m.walAppendDur.Observe(d.Seconds())
	m.walDegraded.Set(0)
}

// observeWALRetry records one retried WAL append.
func (m *lakeMetrics) observeWALRetry() {
	if m == nil {
		return
	}
	m.walRetries.Inc()
}

// observeWALDropped records one record dropped after retries ran out;
// the WAL reads degraded until the next append lands.
func (m *lakeMetrics) observeWALDropped() {
	if m == nil {
		return
	}
	m.walDropped.Inc()
	m.walDegraded.Set(1)
}

// observeCheckpoint records one snapshot checkpoint.
func (m *lakeMetrics) observeCheckpoint(d time.Duration) {
	if m == nil {
		return
	}
	m.checkpoints.Inc()
	m.checkpointDur.Observe(d.Seconds())
}

// observeSegmentPut records one segment put.
func (m *lakeMetrics) observeSegmentPut(d time.Duration) {
	if m == nil {
		return
	}
	m.segmentPutDur.Observe(d.Seconds())
}

// setSegmentBytes records the bytes the stored segments hold.
func (m *lakeMetrics) setSegmentBytes(n int64) {
	if m == nil {
		return
	}
	m.segmentBytes.Set(float64(n))
}

// setResidentBytes records the bytes one structure holds.
func (m *lakeMetrics) setResidentBytes(structure string, n int64) {
	if m == nil {
		return
	}
	m.residentBytes.With(structure).Set(float64(n))
}

// observeReplay records the crash-recovery stats of the last open.
func (m *lakeMetrics) observeReplay(rs maintain.ReplayStats) {
	if m == nil {
		return
	}
	m.replaySnapshot.Set(float64(rs.SnapshotDatasets))
	m.replayWALRecs.Set(float64(rs.WALRecords))
	m.replayWALSkip.Set(float64(rs.WALSkipped))
	m.replayTornBytes.Set(float64(rs.TornBytes))
	m.replayDuration.Set(rs.Duration.Seconds())
	m.replayIndexes.Set(rs.IndexRebuild.Seconds())
}

// observeRetry records one scheduler backoff event.
func (m *lakeMetrics) observeRetry() {
	if m == nil {
		return
	}
	m.maintRetries.Inc()
}

// remoteObserver adapts the lake's metrics to the remote.Observer
// contract; a nil receiver (metrics disabled) observes nothing, so the
// member clients stay wired unconditionally.
type remoteObserver struct{ m *lakeMetrics }

func (o remoteObserver) RemoteRequest(member, outcome string, d time.Duration) {
	if o.m == nil {
		return
	}
	o.m.remoteRequests.With(member, outcome).Inc()
	o.m.remoteDuration.With(member).Observe(d.Seconds())
}

func (o remoteObserver) RemoteRows(member string, n int64) {
	if o.m == nil {
		return
	}
	o.m.remoteRows.With(member).Add(float64(n))
}

func (o remoteObserver) RemoteRetry(member string) {
	if o.m == nil {
		return
	}
	o.m.remoteRetries.With(member).Inc()
}

// Metrics exposes the lake's metric registry, or nil when metrics are
// disabled (WithMetrics(false)).
func (l *Lake) Metrics() *obs.Registry {
	if l.metrics == nil {
		return nil
	}
	return l.metrics.reg
}
