package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"golake/internal/storage/docstore"
	"golake/internal/storage/polystore"
)

// ErrUnknownSource classifies FROM items that resolve to no member
// store. One whose prefix names neither a store nor a remote member
// wraps ErrSyntax too: the statement is malformed, not just unmatched.
var ErrUnknownSource = errors.New("query: unknown source")

// Engine executes parsed queries over a polystore as one pull-based
// columnar pipeline: every FROM item opens as a batch leaf (a
// relational cursor, a remote member's stream, or column runs built
// from a document or file-listing snapshot) with the WHERE filter at
// the leaf; a streaming union or parallel fan-in remaps the leaves onto
// the result header; ORDER BY or LIMIT caps the result.
// Rows exist only at the output — a LIMIT n query stops pulling from
// the source scans after n rows, and memory stays bounded by a few
// batches per stage rather than the full federated result.
type Engine struct {
	Poly *polystore.Poly
	// FanIn configures concurrent fan-in across member stores: with
	// Workers > 1, source scans are opened and drained in parallel
	// behind bounded per-source buffers (ParallelUnionBatches), so a
	// slow member store no longer stalls the whole federated stream.
	// Request.FanIn overrides it per query.
	FanIn FanInOptions
	// BatchRows sizes the pipeline's batches (0 = DefaultBatchRows);
	// Request.BatchRows overrides it per query.
	BatchRows int
	// Fault is the chaos-test stage hook: when set, it is consulted at
	// named pipeline points ("open" before the source scans, "next"
	// before each batch the stream serves) and a non-nil return is
	// injected as that stage's failure. Nil in production — the check
	// costs one pointer test per query.
	Fault func(stage string) error
	// Remotes maps member-lake names to their stream openers: a FROM
	// item "east:orders" routes to Remotes["east"] as a pushed-down
	// sub-query over the /v1/query NDJSON protocol, and the returned
	// stream joins the union like any local leaf — remote lakes are just
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

// NewEngine creates an engine over a polystore. Selection predicates
// and projections are evaluated inside the member stores that can
// (the optimization Constance and Ontario apply).
func NewEngine(p *polystore.Poly) *Engine {
	return &Engine{Poly: p}
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
	plan.Batch = fmt.Sprintf("columnar (%d rows/batch)", batchRows)
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
		return &RowStream{cols: q.Columns, plan: plan, explain: true}, nil
	}
	trace := &Trace{}
	trace.Add("plan", time.Since(planStart))
	if e.Fault != nil {
		if err := e.Fault("open"); err != nil {
			return nil, err
		}
	}
	openStart := time.Now()
	st, err := e.streamBatches(ctx, q, env, opts, batchRows)
	if err != nil {
		return nil, err
	}
	trace.Add("open-sources", time.Since(openStart))
	st.plan, st.trace = plan, trace
	if e.Fault != nil {
		st.bit = &faultBatchIterator{in: st.bit, fault: e.Fault}
	}
	if !analyze {
		return st, nil
	}
	// EXPLAIN ANALYZE: drain the instrumented pipeline to completion,
	// discard the rows, and hand back a rowless stream whose plan
	// carries the live counters and span timings.
	for {
		if _, err := st.NextBatch(ctx); err != nil {
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
	return &RowStream{cols: st.Columns(), plan: plan, explain: true}, nil
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
			for _, pr := range q.Where {
				sp.Pushdown = append(sp.Pushdown, pr.String())
			}
			sp.Project = batchPushableColumns(name, q, e)
		case "remote":
			member, ds := remoteMember(name)
			sp.Access = "remote lake " + member + " (" + e.Remotes[member].Describe() + "), dataset " + ds
			for _, pr := range q.Where {
				sp.Pushdown = append(sp.Pushdown, pr.String())
			}
			sp.Project = q.Columns
		case "doc":
			sp.Access = "collection " + name
			for _, pr := range q.Where {
				if _, ok := docFilter(pr); ok {
					sp.Pushdown = append(sp.Pushdown, pr.String())
				}
			}
		case "file":
			sp.Access = "prefix " + name
		}
		p.Sources = append(p.Sources, sp)
	}
	return p, nil
}

// streamBatches assembles a query's pipeline: every FROM item opens as
// one or more batch leaves, filtered at the leaf or by the member lake
// (in parallel, see openSourcesParallel), each metered for Stats; the
// union remaps whole vectors onto the result header (null-padding what
// a source lacks — the projection stage); a meter counts its batches;
// ORDER BY runs the sort stage (which subsumes LIMIT), otherwise LIMIT
// slices the final batch. Source resolution errors surface here, before any rows flow;
// row-level failures (including cancellation) surface from the stream.
func (e *Engine) streamBatches(ctx context.Context, q *Query, env execEnv, opts FanInOptions, batchRows int) (*RowStream, error) {
	sources, labels, err := e.openSourcesParallel(ctx, q, env, opts.Workers, batchRows)
	if err != nil {
		return nil, err
	}
	st := &RowStream{counters: make([]*sourceCounter, len(sources))}
	for i, src := range sources {
		st.counters[i] = &sourceCounter{source: labels[i]}
		sources[i] = &meteredBatchIterator{in: src, c: st.counters[i]}
	}
	u := ParallelUnionBatches(ctx, sources, q.Columns, opts, batchRows)
	st.bmeter = &batchMeter{in: u, capacity: batchRows}
	if len(env.order) > 0 {
		// The sort stage runs over the union header; a key addressing a
		// column that is not in the result would silently compare empty
		// cells — reject it instead of returning wrongly-ordered rows.
		if err := validateOrder(env.order, u.Columns()); err != nil {
			_ = u.Close()
			return nil, err
		}
		st.sorter = sortBatches(st.bmeter, env.order, env.limit, opts.Budget, batchRows)
		st.bit = st.sorter
	} else {
		st.bit = LimitBatches(st.bmeter, env.limit)
	}
	st.cols = st.bit.Columns()
	return st, nil
}

// batchPushableColumns is the projection pushed into the relational
// store: the requested columns plus the predicate columns (the filter
// runs at the leaf over vectors, so its inputs must survive the scan),
// intersected with what the table has. nil for SELECT *.
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
// vectors that read the stored columns' float mirrors in place.
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
		vecs[j].mirror, vecs[j].off = r.cur.Mirror(j)
	}
	return NewBatch(vecs), nil
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

// openSourcesParallel opens the source scans concurrently, at most
// workers at a time — member-store snapshots are taken under their
// stores' read locks and remote opens are network round-trips, so
// opening is safe and worthwhile to overlap, and a store that is slow
// to open no longer delays the others. It returns the opened leaves
// in FROM order plus a per-leaf stats label (a relational source
// scanned in K shards contributes K leaves). On failure every opened
// leaf is closed and the error of the lowest-indexed failing source is
// returned, so the error does not depend on scheduling.
func (e *Engine) openSourcesParallel(ctx context.Context, q *Query, env execEnv, workers, batchRows int) ([]BatchIterator, []string, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sources := make([][]BatchIterator, len(q.Sources))
	labels := make([][]string, len(q.Sources))
	errs := make([]error, len(q.Sources))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	wg.Add(len(q.Sources))
	for i, src := range q.Sources {
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sources[i], labels[i], errs[i] = e.openSource(ctx, src, q, env, batchRows)
		}()
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
	var flatSources []BatchIterator
	var flatLabels []string
	for i := range sources {
		flatSources = append(flatSources, sources[i]...)
		flatLabels = append(flatLabels, labels[i]...)
	}
	return flatSources, flatLabels, nil
}

// openSource routes one FROM item to its member store's leaves: most
// sources open exactly one, a relational source with env.shards > 1
// opens one per range shard of the same snapshot. Local leaves carry
// the WHERE filter on top; a remote leaf does not, because the member
// evaluated the same predicates before its rows left it.
func (e *Engine) openSource(ctx context.Context, src string, q *Query, env execEnv, batchRows int) ([]BatchIterator, []string, error) {
	kind, name, err := e.resolveKind(src)
	if err != nil {
		return nil, nil, err
	}
	leaves, labels := make([]BatchIterator, 1), []string{src}
	switch kind {
	case "rel":
		leaves, labels, err = e.scanRelational(src, name, q, env.shards, batchRows)
	case "remote":
		var it BatchScanner
		if it, err = e.openRemote(ctx, name, q, env); err == nil {
			return []BatchIterator{Batches(it, batchRows)}, labels, nil
		}
	case "doc":
		leaves[0] = e.scanDocument(name, q, batchRows)
	default:
		leaves[0] = e.scanFiles(name, batchRows)
	}
	if err != nil {
		return nil, nil, err
	}
	for i, leaf := range leaves {
		leaves[i] = FilterBatches(leaf, q.Where)
	}
	return leaves, labels, nil
}

// openRemote opens the pushed-down sub-query stream against the member
// lake a resolved "member:dataset" name addresses. The member filters
// and projects; its rows are the source's rows.
func (e *Engine) openRemote(ctx context.Context, name string, q *Query, env execEnv) (BatchScanner, error) {
	member, ds := remoteMember(name)
	opener := e.Remotes[member]
	if opener == nil {
		return nil, fmt.Errorf("%w: no remote member %q", ErrUnknownSource, member)
	}
	return opener.OpenStream(ctx, RemoteSpec{SQL: e.remoteStatement(ds, q, env), User: env.user})
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
// resolve relational, then document.
func (e *Engine) resolveKind(src string) (kind, name string, err error) {
	kind, name = splitSource(src)
	switch kind {
	case "rel", "doc", "file":
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
		return "", name, fmt.Errorf("%w: %w: bad prefix %q", ErrSyntax, ErrUnknownSource, kind)
	}
}

func splitSource(src string) (kind, name string) {
	if i := strings.Index(src, ":"); i > 0 {
		return src[:i], src[i+1:]
	}
	return "", src
}

// scanRelational opens a relational scan as shards range-partitioned
// cursors over one snapshot (one cursor when shards <= 1), each a leaf
// labeled for stats. Draining all shards yields exactly the rows the
// single-cursor scan would — the fan-in just overlaps the ranges in
// time. The store projects during the scan.
func (e *Engine) scanRelational(src, name string, q *Query, shards, batchRows int) ([]BatchIterator, []string, error) {
	curs, err := e.Poly.Rel.ScanWhereShards(name, nil, batchPushableColumns(name, q, e), shards)
	if err != nil {
		return nil, nil, err
	}
	its := make([]BatchIterator, len(curs))
	labels := make([]string, len(curs))
	for k, cur := range curs {
		its[k] = &relBatchIterator{cur: cur, rows: batchRows}
		labels[k] = shardLabel(src, k, len(curs))
	}
	return its, labels, nil
}

// scanDocument opens a document collection as a leaf: pushable
// predicates are evaluated by the store's Find (the leaf filter
// re-checks them with the dialect's semantics), and the matched
// documents' fields become column runs batch by batch.
func (e *Engine) scanDocument(name string, q *Query, batchRows int) BatchIterator {
	var filters []docstore.Filter
	for _, p := range q.Where {
		if f, ok := docFilter(p); ok {
			filters = append(filters, f)
		}
	}
	docs := e.Poly.Docs.Collection(name).Find(filters...)
	fields := docFields(docs, withPredicateColumns(q))
	return &snapshotIterator{cols: fields, n: len(docs), rows: batchRows, cell: func(i, j int) string {
		return cellText(docs[i][fields[j]])
	}}
}

// withPredicateColumns returns the projection extended with predicate
// columns (nil for SELECT *), so a local leaf's filter still sees the
// cells it needs.
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

// scanFiles opens the raw objects under a prefix as a (path, size,
// format) leaf.
func (e *Engine) scanFiles(prefix string, batchRows int) BatchIterator {
	infos := e.Poly.Files.List(prefix)
	return &snapshotIterator{cols: []string{"path", "size", "format"}, n: len(infos), rows: batchRows, cell: func(i, j int) string {
		switch j {
		case 0:
			return infos[i].Path
		case 1:
			return strconv.FormatInt(infos[i].Size, 10)
		}
		return string(infos[i].Format)
	}}
}

// cellText renders a document field as a cell: a string as itself, a
// number in its shortest form (fmt's %v), and null — like a missing
// field — as the empty cell, the pipeline's null encoding.
func cellText(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// snapshotIterator serves the n records of a store snapshot (documents,
// file listings) as batches of up to rows rows, building each batch's
// column runs through cell.
type snapshotIterator struct {
	cols    []string
	n, rows int
	pos     int
	cell    func(i, j int) string
}

func (s *snapshotIterator) Columns() []string { return s.cols }

func (s *snapshotIterator) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.pos >= s.n {
		return nil, io.EOF
	}
	base := s.pos
	s.pos = min(base+s.rows, s.n)
	return buildBatch(len(s.cols), s.pos-base, func(i, j int) string { return s.cell(base+i, j) }), nil
}

func (s *snapshotIterator) Close() error {
	s.pos = s.n
	return nil
}
