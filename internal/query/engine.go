package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"golake/internal/storage/docstore"
	"golake/internal/storage/filestore"
	"golake/internal/storage/graphstore"
	"golake/internal/storage/polystore"
	"golake/internal/table"
)

// ErrUnknownSource classifies FROM items that resolve to no member
// store (or carry an unrecognized prefix).
var ErrUnknownSource = errors.New("query: unknown source")

// Engine executes parsed queries over a polystore. Execution is a
// pull-based row-iterator pipeline: per-source scan iterators feed a
// streaming union-merge, with predicates, projection, and LIMIT as
// composable stages — so a LIMIT n query stops pulling from the source
// scans after n rows, and memory stays bounded by one row per stage
// rather than the full federated result.
type Engine struct {
	Poly *polystore.Poly
	// PushDown controls whether selection predicates and projections
	// are evaluated inside the member stores (the optimization
	// Constance and Ontario apply) or centrally after full retrieval.
	// The federated-query benchmark toggles this.
	PushDown bool
	// FanIn configures concurrent fan-in across member stores: with
	// Workers > 1, source scans are opened and drained in parallel
	// behind bounded per-source buffers (ParallelUnion), so a slow
	// member store no longer stalls the whole federated stream. The
	// zero value keeps the sequential union and its deterministic
	// source-concatenation row order.
	FanIn FanInOptions
	// BatchRows sizes the columnar pipeline's batches (0 =
	// DefaultBatchRows); Request.BatchRows overrides it per query.
	BatchRows int
	// DisableBatch forces row-mode execution even for queries the
	// columnar pipeline could serve — the regression/benchmark escape
	// hatch.
	DisableBatch bool
	// Fault is the chaos-test stage hook: when set, it is consulted at
	// named pipeline points ("open" before the source scans, "next"
	// before each row the stream serves) and a non-nil return is
	// injected as that stage's failure. Nil in production — the check
	// costs one pointer test per query.
	Fault func(stage string) error
	// Remotes maps member-lake names to their stream openers: a FROM
	// item "east:orders" routes to Remotes["east"] as a pushed-down
	// sub-query over the /v1/query NDJSON protocol, and the returned
	// stream joins the union like any local scan — remote lakes are just
	// slow member stores to the fan-in machinery. Nil for a purely local
	// engine.
	Remotes map[string]RemoteOpener
	// Locate routes a bare FROM item that resolves to no local member
	// store to a remote member by name (the consistent-hash placement
	// helper); the returned member must exist in Remotes. Nil disables
	// routing — unknown bare names stay errors.
	Locate func(dataset string) (member string, ok bool)
}

// execEnv carries the per-request execution context the per-source
// scans need beyond the statement: the effective order and limit (for
// remote ORDER BY/LIMIT pushdown), the identity to forward to member
// lakes, and the intra-source shard width for relational scans.
type execEnv struct {
	order  []OrderKey
	limit  int
	user   string
	shards int
}

// NewEngine creates an engine with pushdown enabled.
func NewEngine(p *polystore.Poly) *Engine {
	return &Engine{Poly: p, PushDown: true}
}

// Query is the engine's single entry point: it parses the request's
// statement, composes the typed options with what the statement says
// (request Order overrides, the stricter Limit wins, FanIn 0 resolves
// to the engine default or one puller per CPU), builds the typed plan,
// and opens the instrumented pipeline. An EXPLAIN statement — or
// Request.Explain — plans without opening any source scan and returns
// a rowless stream whose Plan carries the answer.
func (e *Engine) Query(ctx context.Context, req Request) (*RowStream, error) {
	planStart := time.Now()
	q, err := Parse(req.SQL)
	if err != nil {
		return nil, err
	}
	order := q.Order
	if len(req.Order) > 0 {
		order = req.Order
	}
	limit := CombineLimit(q.Limit, req.Limit)
	opts := e.resolveFanIn(req)
	// The memory budget is shared by every buffering stage of this one
	// query: fan-in queues and the sort heap charge against it.
	opts.Budget = NewMemBudget(req.MemoryRows)
	env := execEnv{order: order, limit: limit, user: req.User, shards: req.Shards}
	plan, err := e.plan(q, order, limit, opts, env.shards)
	if err != nil {
		return nil, err
	}
	plan.MemoryRows = req.MemoryRows
	plan.Timeout = req.Timeout
	batchRows := e.resolveBatchRows(req)
	useBatch := e.batchEligible(q)
	if useBatch {
		plan.Batch = fmt.Sprintf("columnar (%d rows/batch)", batchRows)
	} else {
		plan.Batch = "row (source without batch scan)"
	}
	analyze := q.Analyze || req.Analyze
	if (q.Explain || req.Explain) && !analyze {
		// plan validated sort keys against an explicit projection; for
		// SELECT * the header comes from the stores, so resolve it here
		// — EXPLAIN must reject exactly what execution would. Remote
		// headers are unknowable without opening the stream, so a plan
		// with a remote source defers the check to execution.
		if len(q.Columns) == 0 && len(order) > 0 && !e.hasRemoteSource(q) {
			if err := validateOrder(order, e.starColumns(q)); err != nil {
				return nil, err
			}
		}
		return &RowStream{it: &emptyIterator{cols: q.Columns}, plan: plan, explain: true}, nil
	}
	trace := &Trace{}
	trace.Add("plan", time.Since(planStart))
	if analyze {
		// stream rejects explain-marked queries; run the underlying
		// SELECT with full instrumentation instead.
		qq := *q
		qq.Explain, qq.Analyze = false, false
		q = &qq
	}
	if e.Fault != nil {
		if err := e.Fault("open"); err != nil {
			return nil, err
		}
	}
	openStart := time.Now()
	var it RowIterator
	var counters []*sourceCounter
	var bit BatchIterator
	var bmeter *batchMeter
	if useBatch {
		it, bit, bmeter, counters, err = e.streamBatches(ctx, q, env, opts, batchRows)
	} else {
		it, counters, err = e.stream(ctx, q, env, opts, true)
	}
	if err != nil {
		return nil, err
	}
	trace.Add("open-sources", time.Since(openStart))
	st := &RowStream{it: it, bit: bit, bmeter: bmeter, plan: plan, counters: counters, trace: trace}
	if s, ok := it.(*sortIterator); ok {
		st.sorter = s
	}
	if e.Fault != nil {
		st.it = &faultIterator{in: it, fault: e.Fault}
		if bit != nil {
			st.bit = &faultBatchIterator{in: bit, fault: e.Fault}
		}
	}
	if !analyze {
		return st, nil
	}
	// EXPLAIN ANALYZE: drain the instrumented pipeline to completion,
	// discard the rows, and hand back a rowless stream whose plan
	// carries the live counters and span timings.
	for {
		if _, err := st.Next(ctx); err != nil {
			if err == io.EOF {
				break
			}
			_ = st.Close()
			return nil, err
		}
	}
	_ = st.Close()
	stats := st.Stats()
	plan.Analyzed = &stats
	return &RowStream{it: &emptyIterator{cols: st.Columns()}, plan: plan, explain: true}, nil
}

// resolveFanIn resolves a request's fan-in against the engine
// configuration: an explicit request width wins (1 = sequential), then
// the engine's configured fan-in, then the CPU-wide default.
func (e *Engine) resolveFanIn(req Request) FanInOptions {
	w := req.FanIn
	if w <= 0 {
		w = e.FanIn.Workers
	}
	if w <= 0 {
		w = DefaultFanIn()
	}
	b := req.BufferRows
	if b <= 0 {
		b = e.FanIn.BufferRows
	}
	return FanInOptions{Workers: w, BufferRows: b}
}

// resolveBatchRows resolves a request's batch size against the engine
// configuration: an explicit request size wins, then the engine's, then
// DefaultBatchRows.
func (e *Engine) resolveBatchRows(req Request) int {
	if req.BatchRows > 0 {
		return req.BatchRows
	}
	if e.BatchRows > 0 {
		return e.BatchRows
	}
	return DefaultBatchRows
}

// batchEligible reports whether the columnar pipeline can serve the
// query: every FROM item must resolve to the relational store (the one
// member store with a batch scan) or a remote member lake (whose
// stream decodes into batches). Anything else — document, graph, file,
// or mixed sources — falls back to the row pipeline unchanged.
func (e *Engine) batchEligible(q *Query) bool {
	if e.DisableBatch || len(q.Sources) == 0 {
		return false
	}
	for _, src := range q.Sources {
		kind, _, err := e.resolveKind(src)
		if err != nil || (kind != "rel" && kind != "remote") {
			return false
		}
	}
	return true
}

// CombineLimit composes two row caps; zero means unbounded, otherwise
// the stricter cap wins. The Lake uses it to fold WithMaxResults into
// a request's limit before the engine sees it.
func CombineLimit(a, b int) int {
	if a <= 0 {
		return b
	}
	if b > 0 && b < a {
		return b
	}
	return a
}

// plan builds the typed execution plan: per-source access paths with
// the predicates/projections that will be pushed down, the effective
// union width, and the sort strategy. Source resolution failures
// surface here, so EXPLAIN of an unknown source errors like execution
// would.
func (e *Engine) plan(q *Query, order []OrderKey, limit int, opts FanInOptions, shards int) (*Plan, error) {
	p := &Plan{Statement: q.String(), FanIn: 1, Sort: "none", Limit: limit}
	// With an explicit projection the result header is known before any
	// source opens; reject unsortable keys here so EXPLAIN reports the
	// same failure execution would. (SELECT * headers depend on the
	// sources; the stream assembly re-checks against the real header.)
	if len(q.Columns) > 0 {
		if err := validateOrder(order, q.Columns); err != nil {
			return nil, err
		}
	}
	for _, k := range order {
		p.Order = append(p.Order, k.String())
	}
	if len(order) > 0 {
		if limit > 0 {
			p.Sort = fmt.Sprintf("top-k heap (k=%d)", limit)
		} else {
			p.Sort = "full sort"
		}
	}
	// The effective union width counts shard cursors too: one rel source
	// scanned in K shards feeds K iterators into the same fan-in.
	effective := 0
	for _, src := range q.Sources {
		if kind, _, err := e.resolveKind(src); err == nil && kind == "rel" && shards > 1 {
			effective += shards
		} else {
			effective++
		}
	}
	if !opts.sequential() && effective >= 2 {
		w := opts.Workers
		if w > effective {
			w = effective
		}
		p.FanIn = w
		p.BufferRows = opts.bufferRows()
	}
	for _, src := range q.Sources {
		kind, name, err := e.resolveKind(src)
		if err != nil {
			return nil, err
		}
		sp := SourcePlan{Source: src, Store: kind}
		switch kind {
		case "rel":
			// Execution fails on a missing table when the scan opens;
			// the plan keeps that parity so EXPLAIN is an honest probe.
			if !e.Poly.Rel.Has(name) {
				return nil, fmt.Errorf("%w: %s", polystore.ErrNoTable, name)
			}
			sp.Access = "table " + name
			if shards > 1 {
				sp.Access = fmt.Sprintf("table %s (%d range shards)", name, shards)
			}
			if e.PushDown {
				for _, pr := range q.Where {
					sp.Pushdown = append(sp.Pushdown, pr.String())
				}
				sp.Project = pushableColumns(name, q, e)
			}
		case "remote":
			member, ds := remoteMember(name)
			sp.Access = "remote lake " + member + " (" + e.Remotes[member].Describe() + "), dataset " + ds
			if e.PushDown {
				for _, pr := range q.Where {
					sp.Pushdown = append(sp.Pushdown, pr.String())
				}
				sp.Project = withPredicateColumns(q)
			}
		case "doc":
			sp.Access = "collection " + name
			if e.PushDown {
				for _, pr := range q.Where {
					if _, ok := docFilter(pr); ok {
						sp.Pushdown = append(sp.Pushdown, pr.String())
					}
				}
			}
		case "graph":
			sp.Access = "label " + name
		case "file":
			sp.Access = "prefix " + name
		}
		p.Sources = append(p.Sources, sp)
	}
	return p, nil
}

// ExecuteSQL parses and executes a statement, materializing the full
// result. The context cancels execution between rows.
func (e *Engine) ExecuteSQL(ctx context.Context, sql string) (*table.Table, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, q)
}

// StreamSQL parses a statement and opens its streaming execution with
// the engine's configured fan-in.
//
// Deprecated: use Query, which carries the statement and its execution
// options in one Request and returns plan/stats introspection.
func (e *Engine) StreamSQL(ctx context.Context, sql string) (RowIterator, error) {
	return e.StreamSQLFanIn(ctx, sql, e.FanIn)
}

// StreamSQLFanIn parses a statement and opens its streaming execution
// with an explicit fan-in configuration (per-query override of the
// engine default).
//
// Deprecated: use Query with Request.FanIn/BufferRows.
func (e *Engine) StreamSQLFanIn(ctx context.Context, sql string, opts FanInOptions) (RowIterator, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.StreamFanIn(ctx, q, opts)
}

// Execute runs a parsed query and collects the streamed rows into a
// table — the thin materializing wrapper over the pipeline that keeps
// table-shaped callers working. It honors the engine's configured
// fan-in (sequential when unset), never the CPU-wide Request default.
func (e *Engine) Execute(ctx context.Context, q *Query) (*table.Table, error) {
	it, _, err := e.stream(ctx, q, execEnv{order: q.Order, limit: q.Limit}, e.FanIn, false)
	if err != nil {
		return nil, err
	}
	return Collect(ctx, it)
}

// Stream opens the query's iterator pipeline with the engine's
// configured fan-in.
//
// Deprecated: use Query.
func (e *Engine) Stream(ctx context.Context, q *Query) (RowIterator, error) {
	return e.StreamFanIn(ctx, q, e.FanIn)
}

// StreamFanIn opens a parsed query's pipeline with an explicit fan-in
// configuration. With Workers > 1 the source scans are both opened and
// drained concurrently (ParallelUnion); otherwise the pipeline is the
// sequential union with its deterministic row order.
//
// Deprecated: use Query with Request.FanIn/BufferRows.
func (e *Engine) StreamFanIn(ctx context.Context, q *Query, opts FanInOptions) (RowIterator, error) {
	it, _, err := e.stream(ctx, q, execEnv{order: q.Order, limit: q.Limit}, opts, false)
	return it, err
}

// stream assembles one query pipeline: per-source scan iterators
// (opened in parallel when fanning in), optionally instrumented with
// per-source counters, merged by the union, then ordered and capped —
// ORDER BY with a limit runs as a bounded top-K heap that subsumes the
// LIMIT stage. Source resolution errors surface here, before any rows
// flow; row-level failures (including cancellation) surface from Next.
func (e *Engine) stream(ctx context.Context, q *Query, env execEnv, opts FanInOptions, collectStats bool) (RowIterator, []*sourceCounter, error) {
	if q.Explain {
		// Row-shaped entry points have nothing to return for EXPLAIN —
		// and silently executing the underlying SELECT would be worse.
		// Query handles explain before reaching here.
		return nil, nil, fmt.Errorf("%w: EXPLAIN has no row result on this entry point; use Query", ErrSyntax)
	}
	order, limit := env.order, env.limit
	var sources []RowIterator
	var labels []string
	var err error
	if opts.sequential() || len(q.Sources) < 2 {
		sources, labels, err = e.openSources(ctx, q, env)
	} else {
		sources, labels, err = e.openSourcesParallel(ctx, q, env, opts.Workers)
	}
	if err != nil {
		return nil, nil, err
	}
	var counters []*sourceCounter
	if collectStats {
		counters = make([]*sourceCounter, len(sources))
		for i, src := range sources {
			c := &sourceCounter{source: labels[i]}
			counters[i] = c
			sources[i] = &meteredIterator{in: src, c: c}
		}
	}
	it := ParallelUnion(ctx, sources, q.Columns, opts)
	if len(order) > 0 {
		// The sort stage runs over the union header; a key addressing a
		// column that is not in the result would silently compare empty
		// cells — reject it instead of returning wrongly-ordered rows.
		if err := validateOrder(order, it.Columns()); err != nil {
			_ = it.Close()
			return nil, nil, err
		}
		it = SortWithBudget(it, order, limit, opts.Budget)
	} else {
		it = Limit(it, limit)
	}
	return it, counters, nil
}

// streamBatches assembles the columnar pipeline for an all-relational
// query: per-source batch scans fill vectors zero-copy from the store
// snapshot, the vectorized filter narrows each batch's selection
// centrally (predicates are evaluated once per vector, not pushed into
// the cursor), the batch union remaps whole columns onto the result
// header (null-padding what a source lacks — the projection stage), a
// meter counts batches for stats and observability, and LIMIT slices
// the final batch. ORDER BY re-rowifies through the shared top-K sort
// stage — then the returned BatchIterator is nil and only the row face
// serves the output. Output is byte-identical to the row pipeline
// (modulo the arrival-order nondeterminism a parallel fan-in already
// has).
func (e *Engine) streamBatches(ctx context.Context, q *Query, env execEnv, opts FanInOptions, batchRows int) (RowIterator, BatchIterator, *batchMeter, []*sourceCounter, error) {
	order, limit := env.order, env.limit
	sources := make([]BatchIterator, 0, len(q.Sources))
	counters := make([]*sourceCounter, 0, len(q.Sources))
	closeAll := func() {
		for _, s := range sources {
			_ = s.Close()
		}
	}
	addSource := func(bi BatchIterator, label string) {
		bi = FilterBatches(bi, q.Where)
		c := &sourceCounter{source: label}
		counters = append(counters, c)
		sources = append(sources, &meteredBatchIterator{in: bi, c: c})
	}
	for _, src := range q.Sources {
		if err := ctx.Err(); err != nil {
			closeAll()
			return nil, nil, nil, nil, err
		}
		kind, name, err := e.resolveKind(src) // "rel" or "remote" (batchEligible)
		if err != nil {
			closeAll()
			return nil, nil, nil, nil, err
		}
		if kind == "remote" {
			// A member lake's stream decodes its NDJSON straight into
			// batches. The pushed projection includes predicate
			// columns, so the central filter re-evaluates exactly what
			// the member did.
			it, err := e.openRemote(ctx, name, q, env)
			if err != nil {
				closeAll()
				return nil, nil, nil, nil, err
			}
			addSource(Batches(it, batchRows), src)
			continue
		}
		var proj []string
		if e.PushDown {
			proj = batchPushableColumns(name, q, e)
		}
		curs, err := e.Poly.Rel.ScanWhereShards(name, nil, proj, env.shards)
		if err != nil {
			closeAll()
			return nil, nil, nil, nil, err
		}
		for k, cur := range curs {
			addSource(&relBatchIterator{cur: cur, rows: batchRows}, shardLabel(src, k, len(curs)))
		}
	}
	u := ParallelUnionBatches(ctx, sources, q.Columns, opts, batchRows)
	if len(order) > 0 {
		if err := validateOrder(order, u.Columns()); err != nil {
			_ = u.Close()
			return nil, nil, nil, nil, err
		}
	}
	meter := &batchMeter{in: u, capacity: batchRows}
	if len(order) > 0 {
		return SortBatchesWithBudget(meter, order, limit, opts.Budget), nil, meter, counters, nil
	}
	bit := LimitBatches(meter, limit)
	return Rows(bit), bit, meter, counters, nil
}

// batchPushableColumns is the projection the batch pipeline pushes into
// the store: the requested columns plus the predicate columns (the
// filter runs centrally over vectors, so its inputs must survive the
// scan), intersected with what the table has. nil for SELECT *.
func batchPushableColumns(name string, q *Query, e *Engine) []string {
	want := withPredicateColumns(q)
	if want == nil {
		return nil
	}
	names, err := e.Poly.Rel.ColumnNames(name)
	if err != nil {
		return nil
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	var cols []string
	for _, c := range want {
		if have[c] {
			cols = append(cols, c)
		}
	}
	return cols
}

// relBatchIterator adapts a relational store cursor to the batch
// pipeline: each Next pulls one column-wise batch from the snapshot —
// zero-copy runs when nothing was pushed down — and wraps the runs as
// vectors.
type relBatchIterator struct {
	cur  *polystore.Cursor
	rows int
}

func (r *relBatchIterator) Columns() []string { return r.cur.Columns() }

func (r *relBatchIterator) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cells, n := r.cur.NextBatch(r.rows)
	if n == 0 {
		return nil, io.EOF
	}
	vecs := make([]*Vector, len(cells))
	for j := range cells {
		vecs[j] = NewVector(cells[j])
	}
	return NewBatch(r.cur.Columns(), vecs), nil
}

func (r *relBatchIterator) Close() error { return r.cur.Close() }

// starColumns computes the SELECT * result header without opening any
// scan: the union of the source headers in first-seen order, mirroring
// what the union stage would produce. Explain-time ORDER BY validation
// uses it; sources that fail to resolve are skipped (plan building
// already surfaced their error).
func (e *Engine) starColumns(q *Query) []string {
	var cols []string
	seen := map[string]bool{}
	add := func(cs ...string) {
		for _, c := range cs {
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
	}
	for _, src := range q.Sources {
		kind, name, err := e.resolveKind(src)
		if err != nil {
			continue
		}
		switch kind {
		case "remote":
			// A remote header is unknowable without opening the stream;
			// callers with remote sources defer validation to execution.
		case "rel":
			if names, err := e.Poly.Rel.ColumnNames(name); err == nil {
				add(names...)
			}
		case "doc":
			add(docFields(e.Poly.Docs.Collection(name).All(), nil)...)
		case "graph":
			add("id")
			for _, n := range e.Poly.Graph.NodesByLabel(name) {
				for k := range n.Props {
					add(k)
				}
			}
		case "file":
			add("path", "size", "format")
		}
	}
	return cols
}

// validateOrder checks every sort key against the result header.
func validateOrder(order []OrderKey, cols []string) error {
	have := make(map[string]bool, len(cols))
	for _, c := range cols {
		have[c] = true
	}
	for _, k := range order {
		if !have[k.Column] {
			return fmt.Errorf("%w: ORDER BY column %q is not in the result (project it or use SELECT *)", ErrSyntax, k.Column)
		}
	}
	return nil
}

// openSources resolves and opens every FROM item in order, returning
// the opened iterators plus a per-iterator stats label (a relational
// source scanned in K shards contributes K iterators).
func (e *Engine) openSources(ctx context.Context, q *Query, env execEnv) ([]RowIterator, []string, error) {
	var sources []RowIterator
	var labels []string
	closeAll := func() {
		for _, s := range sources {
			_ = s.Close()
		}
	}
	for _, src := range q.Sources {
		if err := ctx.Err(); err != nil {
			closeAll()
			return nil, nil, err
		}
		its, ls, err := e.openSource(ctx, src, q, env)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		sources = append(sources, its...)
		labels = append(labels, ls...)
	}
	return sources, labels, nil
}

// openSourcesParallel opens the source scans concurrently, at most
// workers at a time — member-store snapshots are taken under their
// stores' read locks and remote opens are network round-trips, so
// opening is safe and worthwhile to overlap, and a store that is slow
// to open no longer delays the others. On failure every opened iterator
// is closed and the error of the lowest-indexed failing source is
// returned, matching the sequential open's first-error semantics.
func (e *Engine) openSourcesParallel(ctx context.Context, q *Query, env execEnv, workers int) ([]RowIterator, []string, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sources := make([][]RowIterator, len(q.Sources))
	labels := make([][]string, len(q.Sources))
	errs := make([]error, len(q.Sources))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	wg.Add(len(q.Sources))
	for i, src := range q.Sources {
		go func(i int, src string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sources[i], labels[i], errs[i] = e.openSource(ctx, src, q, env)
		}(i, src)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, group := range sources {
				for _, s := range group {
					_ = s.Close()
				}
			}
			return nil, nil, err
		}
	}
	var flatSources []RowIterator
	var flatLabels []string
	for i := range sources {
		flatSources = append(flatSources, sources[i]...)
		flatLabels = append(flatLabels, labels[i]...)
	}
	return flatSources, flatLabels, nil
}

// openSource routes one FROM item to its member store's scan
// iterator(s): most sources open exactly one, a relational source with
// env.shards > 1 opens one per range shard of the same snapshot.
func (e *Engine) openSource(ctx context.Context, src string, q *Query, env execEnv) ([]RowIterator, []string, error) {
	kind, name, err := e.resolveKind(src)
	if err != nil {
		return nil, nil, err
	}
	one := func(it RowIterator, err error) ([]RowIterator, []string, error) {
		if err != nil {
			return nil, nil, err
		}
		return []RowIterator{it}, []string{src}, nil
	}
	switch kind {
	case "rel":
		return e.scanRelationalShards(src, name, q, env.shards)
	case "remote":
		return one(e.openRemote(ctx, name, q, env))
	case "doc":
		return one(e.scanDocument(name, q))
	case "graph":
		return one(e.scanGraph(name, q))
	default:
		return one(e.scanFiles(name, q))
	}
}

// openRemote opens the pushed-down sub-query stream against the member
// lake a resolved "member:dataset" name addresses. With pushdown the
// member already filtered and projected, so the stream joins the union
// directly; without it the central stages wrap it like any other
// unpushed scan.
func (e *Engine) openRemote(ctx context.Context, name string, q *Query, env execEnv) (RowIterator, error) {
	member, ds := remoteMember(name)
	opener := e.Remotes[member]
	if opener == nil {
		return nil, fmt.Errorf("%w: no remote member %q", ErrUnknownSource, member)
	}
	it, err := opener.OpenStream(ctx, RemoteSpec{SQL: e.remoteStatement(ds, q, env), User: env.user})
	if err != nil {
		return nil, err
	}
	if e.PushDown {
		return it, nil
	}
	return central(it, q), nil
}

// shardLabel names one shard's stats counter: "rel:big[shard 2/4]".
func shardLabel(src string, k, of int) string {
	if of <= 1 {
		return src
	}
	return fmt.Sprintf("%s[shard %d/%d]", src, k+1, of)
}

// resolveKind resolves one FROM item to its member store without
// opening a scan — shared by execution and the planner, so EXPLAIN
// reports exactly the access path execution would take. Bare names
// resolve relational, then document, then graph.
func (e *Engine) resolveKind(src string) (kind, name string, err error) {
	kind, name = splitSource(src)
	switch kind {
	case "rel", "doc", "graph", "file":
		return kind, name, nil
	case "":
		if e.Poly.Rel.Has(name) {
			return "rel", name, nil
		}
		for _, coll := range e.Poly.Docs.Collections() {
			if coll == name {
				return "doc", name, nil
			}
		}
		if len(e.Poly.Graph.NodesByLabel(name)) > 0 {
			return "graph", name, nil
		}
		// Not local anywhere: consult the placement helper — a bare
		// dataset name routes to the consistent-hash member that owns
		// it, so callers need not know the topology.
		if e.Locate != nil {
			if m, ok := e.Locate(name); ok {
				if _, exists := e.Remotes[m]; exists {
					return "remote", m + ":" + name, nil
				}
			}
		}
		return "", name, fmt.Errorf("%w: %q", ErrUnknownSource, name)
	default:
		// An unrecognized prefix may name a configured remote member:
		// "east:orders" scans dataset "orders" on member "east" (the
		// dataset part may itself carry a store prefix, forwarded
		// verbatim — "east:rel:orders"). The canonical remote name is
		// "member:dataset" even when the member was ring-located.
		if _, ok := e.Remotes[kind]; ok {
			return "remote", kind + ":" + name, nil
		}
		return "", name, fmt.Errorf("%w: bad prefix %q", ErrUnknownSource, kind)
	}
}

func splitSource(src string) (kind, name string) {
	if i := strings.Index(src, ":"); i > 0 {
		return src[:i], src[i+1:]
	}
	return "", src
}

// central wraps a source scan with the engine-side stages a store
// could not evaluate: predicate filtering, then projection onto the
// requested columns (null-padding the missing ones so union aligns).
func central(it RowIterator, q *Query) RowIterator {
	return Project(Filter(it, q.Where), q.Columns)
}

// relCursorIterator adapts a relational store cursor to the pipeline.
type relCursorIterator struct {
	cur *polystore.Cursor
}

func (r *relCursorIterator) Columns() []string { return r.cur.Columns() }

func (r *relCursorIterator) Next(ctx context.Context) (Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	row, ok := r.cur.Next()
	if !ok {
		return nil, io.EOF
	}
	return row, nil
}

func (r *relCursorIterator) Close() error { return r.cur.Close() }

// scanRelational streams a relational table. With pushdown the store
// evaluates compiled predicates and the projection during the scan;
// without it, every row is pulled and filtered centrally.
func (e *Engine) scanRelational(name string, q *Query) (RowIterator, error) {
	its, _, err := e.scanRelationalShards(name, name, q, 1)
	if err != nil {
		return nil, err
	}
	return its[0], nil
}

// scanRelationalShards opens a relational scan as shards range-
// partitioned cursors over one snapshot (one cursor when shards <= 1),
// each wrapped for the pipeline and labeled for stats. Draining all
// shards yields exactly the rows the single-cursor scan would — the
// fan-in just overlaps the ranges in time.
func (e *Engine) scanRelationalShards(src, name string, q *Query, shards int) ([]RowIterator, []string, error) {
	var preds []polystore.CellPredicate
	var proj []string
	if e.PushDown {
		preds = make([]polystore.CellPredicate, len(q.Where))
		for i, p := range q.Where {
			pred := p
			preds[i] = polystore.CellPredicate{Column: p.Column, Match: pred.Matches}
		}
		proj = pushableColumns(name, q, e)
	}
	curs, err := e.Poly.Rel.ScanWhereShards(name, preds, proj, shards)
	if err != nil {
		return nil, nil, err
	}
	its := make([]RowIterator, len(curs))
	labels := make([]string, len(curs))
	for k, cur := range curs {
		var it RowIterator = &relCursorIterator{cur: cur}
		if !e.PushDown {
			it = central(it, q)
		}
		its[k] = it
		labels[k] = shardLabel(src, k, len(curs))
	}
	return its, labels, nil
}

// pushableColumns returns the projection to push into the store: the
// requested columns that exist there. The predicate is pushed
// separately, so its columns need not survive projection.
func pushableColumns(name string, q *Query, e *Engine) []string {
	if len(q.Columns) == 0 {
		return nil // SELECT *
	}
	names, err := e.Poly.Rel.ColumnNames(name)
	if err != nil {
		return nil
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	var cols []string
	for _, c := range q.Columns {
		if have[c] {
			cols = append(cols, c)
		}
	}
	return cols
}

// scanDocument streams a document collection: pushable predicates are
// evaluated by the store's Find, the matched documents are flattened
// into rows one Next at a time, and unpushed predicates plus the
// projection run as central stages.
func (e *Engine) scanDocument(name string, q *Query) (RowIterator, error) {
	coll := e.Poly.Docs.Collection(name)
	var docs []docstore.Doc
	if e.PushDown {
		var filters []docstore.Filter
		for _, p := range q.Where {
			f, ok := docFilter(p)
			if !ok {
				// Unpushable predicate: evaluated centrally below.
				continue
			}
			filters = append(filters, f)
		}
		docs = coll.Find(filters...)
	} else {
		docs = coll.All()
	}
	fields := docFields(docs, withPredicateColumns(q))
	it := indexIterator(fields, len(docs), func(i int) Row {
		row := make(Row, len(fields))
		for j, f := range fields {
			if v, ok := docs[i][f]; ok {
				row[j] = fmt.Sprintf("%v", v)
			}
		}
		return row
	})
	return central(it, q), nil
}

// withPredicateColumns returns the projection extended with predicate
// columns (nil for SELECT *), so central predicate evaluation still
// sees the cells it needs.
func withPredicateColumns(q *Query) []string {
	if len(q.Columns) == 0 {
		return nil
	}
	out := append([]string(nil), q.Columns...)
	have := map[string]bool{}
	for _, c := range out {
		have[c] = true
	}
	for _, p := range q.Where {
		if !have[p.Column] {
			have[p.Column] = true
			out = append(out, p.Column)
		}
	}
	return out
}

// docFilter maps a predicate onto a docstore filter.
func docFilter(p Predicate) (docstore.Filter, bool) {
	var op docstore.Op
	switch p.Op {
	case OpEq:
		op = docstore.OpEq
	case OpNe:
		op = docstore.OpNe
	case OpGt:
		op = docstore.OpGt
	case OpGte:
		op = docstore.OpGte
	case OpLt:
		op = docstore.OpLt
	case OpLte:
		op = docstore.OpLte
	default:
		return docstore.Filter{}, false
	}
	var val any = p.Value
	if p.Numeric {
		var f float64
		_, err := fmt.Sscanf(p.Value, "%g", &f)
		if err == nil {
			val = f
		}
	}
	return docstore.Filter{Path: p.Column, Op: op, Value: val}, true
}

// docFields computes the row header for a document scan: the requested
// columns, or the sorted union of the documents' top-level scalar
// fields.
func docFields(docs []docstore.Doc, want []string) []string {
	fieldSet := map[string]bool{}
	if len(want) > 0 {
		for _, c := range want {
			fieldSet[c] = true
		}
	} else {
		for _, d := range docs {
			for k, v := range d {
				if k == "_id" {
					continue
				}
				switch v.(type) {
				case map[string]any, []any:
				default:
					fieldSet[k] = true
				}
			}
		}
	}
	fields := make([]string, 0, len(fieldSet))
	for f := range fieldSet {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	return fields
}

// scanGraph streams the nodes of one label, flattening id + properties
// into rows on the fly.
func (e *Engine) scanGraph(label string, q *Query) (RowIterator, error) {
	nodes := e.Poly.Graph.NodesByLabel(label)
	fieldSet := map[string]bool{}
	if cols := withPredicateColumns(q); cols != nil {
		for _, c := range cols {
			fieldSet[c] = true
		}
	} else {
		fieldSet["id"] = true
		for _, n := range nodes {
			for k := range n.Props {
				fieldSet[k] = true
			}
		}
	}
	fields := make([]string, 0, len(fieldSet))
	for f := range fieldSet {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	it := indexIterator(fields, len(nodes), func(i int) Row {
		return graphRow(nodes[i], fields)
	})
	return central(it, q), nil
}

func graphRow(n graphstore.Node, fields []string) Row {
	row := make(Row, len(fields))
	for j, f := range fields {
		if f == "id" {
			row[j] = n.ID
			continue
		}
		if v, ok := n.Props[f]; ok {
			row[j] = fmt.Sprintf("%v", v)
		}
	}
	return row
}

// scanFiles streams raw objects under a prefix as (path, size, format)
// rows.
func (e *Engine) scanFiles(prefix string, q *Query) (RowIterator, error) {
	infos := e.Poly.Files.List(prefix)
	it := indexIterator([]string{"path", "size", "format"}, len(infos), func(i int) Row {
		return fileRow(infos[i])
	})
	return central(it, q), nil
}

func fileRow(info filestore.ObjectInfo) Row {
	return Row{info.Path, fmt.Sprintf("%d", info.Size), string(info.Format)}
}
