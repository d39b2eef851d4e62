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
// relational cursor, a remote member's stream, runs of a document
// collection's columnar form, or column runs built from a file-listing
// snapshot) with the WHERE filter at
// the leaf; a streaming union or parallel fan-in remaps the leaves onto
// the result header; ORDER BY or LIMIT caps the result.
// Rows exist only at the output — a LIMIT n query stops pulling from
// the source scans after n rows, and memory stays bounded by a few
// batches per stage rather than the full federated result.
type Engine struct {
	Poly *polystore.Poly
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
// remote ORDER BY/LIMIT pushdown) and the identity to forward to
// member lakes.
type execEnv struct {
	order []OrderKey
	limit int
	user  string
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
// to one puller per CPU), builds the typed plan, and opens the
// instrumented pipeline. An EXPLAIN statement — or Request.Explain —
// plans without opening any source scan and returns a rowless stream
// whose Plan carries the answer.
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
	// The memory budget is shared by every buffering stage of this one
	// query: fan-in queues and the sort heap charge against it.
	opts := FanInOptions{Workers: req.FanIn, Budget: NewMemBudget(req.MemoryRows)}
	if opts.Workers <= 0 {
		opts.Workers = DefaultFanIn()
	}
	batchRows := req.BatchRows
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	env := execEnv{order: order, limit: limit, user: req.User}
	plan, err := e.plan(q, order, limit, opts, batchRows)
	if err != nil {
		return nil, err
	}
	plan.MemoryRows = req.MemoryRows
	plan.Timeout = req.Timeout
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
func (e *Engine) plan(q *Query, order []OrderKey, limit int, opts FanInOptions, batchRows int) (*Plan, error) {
	p := &Plan{Statement: q.String(), FanIn: 1, Sort: "none", Limit: limit,
		Batch: fmt.Sprintf("columnar (%d rows/batch)", batchRows)}
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
	if n := len(q.Sources); !opts.sequential() && n >= 2 {
		p.FanIn = min(opts.Workers, n)
		p.BufferRows = fanInDepth(batchRows) * batchRows
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
// one batch leaf, filtered at the leaf or by the member lake
// (in parallel, see openSourcesParallel), each metered for Stats; the
// union remaps whole vectors onto the result header (null-padding what
// a source lacks — the projection stage); a meter counts its batches;
// ORDER BY runs the sort stage (which subsumes LIMIT), otherwise LIMIT
// slices the final batch. Source resolution errors surface here, before any rows flow;
// row-level failures (including cancellation) surface from the stream.
func (e *Engine) streamBatches(ctx context.Context, q *Query, env execEnv, opts FanInOptions, batchRows int) (*RowStream, error) {
	sources, err := e.openSourcesParallel(ctx, q, env, opts.Workers, batchRows)
	if err != nil {
		return nil, err
	}
	st := &RowStream{counters: make([]*sourceCounter, len(sources))}
	for i, src := range sources {
		st.counters[i] = &sourceCounter{source: q.Sources[i]}
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
			form, _ := e.Poly.Docs.Collection(name).Select()
			add(form.ScalarFields(nil)...)
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
// to open no longer delays the others. It returns one leaf per FROM
// item, in FROM order. On failure every opened leaf is closed and the
// error of the lowest-indexed failing source is returned, so the error
// does not depend on scheduling.
func (e *Engine) openSourcesParallel(ctx context.Context, q *Query, env execEnv, workers, batchRows int) ([]BatchIterator, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sources := make([]BatchIterator, len(q.Sources))
	errs := make([]error, len(q.Sources))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	wg.Add(len(q.Sources))
	for i, src := range q.Sources {
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sources[i], errs[i] = e.openSource(ctx, src, q, env, batchRows)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, s := range sources {
				if s != nil {
					_ = s.Close()
				}
			}
			return nil, err
		}
	}
	return sources, nil
}

// openSource routes one FROM item to its member store's leaf. A local
// leaf carries the WHERE filter on top; a remote leaf does not, because
// the member evaluated the same predicates before its rows left it.
func (e *Engine) openSource(ctx context.Context, src string, q *Query, env execEnv, batchRows int) (BatchIterator, error) {
	kind, name, err := e.resolveKind(src)
	if err != nil {
		return nil, err
	}
	var leaf BatchIterator
	switch kind {
	case "rel":
		leaf, err = e.scanRelational(name, q, batchRows)
	case "remote":
		var it BatchScanner
		if it, err = e.openRemote(ctx, name, q, env); err == nil {
			return Batches(it, batchRows), nil
		}
	case "doc":
		leaf = e.scanDocument(name, q, batchRows)
	default:
		leaf = e.scanFiles(name, batchRows)
	}
	if err != nil {
		return nil, err
	}
	return FilterBatches(leaf, q.Where), nil
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
		if e.Poly.Docs.Collection(name) != nil {
			return "doc", name, nil
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

// scanRelational opens a relational scan as one cursor over the
// table's snapshot; the store projects during the scan.
func (e *Engine) scanRelational(name string, q *Query, batchRows int) (BatchIterator, error) {
	cur, err := e.Poly.Rel.ScanWhere(name, nil, batchPushableColumns(name, q, e))
	if err != nil {
		return nil, err
	}
	return &relBatchIterator{cur: cur, rows: batchRows}, nil
}

// scanDocument opens a document collection as a leaf over its
// columnar form: pushable predicates are evaluated by the store's
// Select (the leaf filter re-checks them with the dialect's semantics),
// and the selected rows are served as runs of the form's columns, or
// built batch by batch when a field they read has no kept column.
func (e *Engine) scanDocument(name string, q *Query, batchRows int) BatchIterator {
	var filters []docstore.Filter
	for _, p := range q.Where {
		if f, ok := docFilter(p); ok {
			filters = append(filters, f)
		}
	}
	form, rows := e.Poly.Docs.Collection(name).Select(filters...)
	cols := withPredicateColumns(q)
	if cols == nil {
		cols = form.ScalarFields(rows)
	} else {
		sort.Strings(cols)
	}
	d := &docBatchIterator{cols: cols, form: form, runs: make([]*docstore.Column, len(cols)), rows: rows, n: form.Len(), max: batchRows}
	if rows != nil {
		d.n = len(rows)
	}
	for j, c := range cols {
		d.runs[j] = form.Column(c)
		d.gather = d.gather || d.runs[j] == nil
	}
	return d
}

// docBatchIterator serves a document scan's selected rows, up to max
// per batch, zero-copy as relBatchIterator does: each vector is a run
// of a form column that reads the column's mirror in place, and the
// batch's selection is the scan's own. A batch of a selecting scan
// spans its column from row 0, so the selection needs no rebasing.
// When a field has no kept column (gather), each batch instead copies
// its rows' cells and reads that field's off the documents, so a
// sparse field's cells live one batch at a time, not with the
// collection.
type docBatchIterator struct {
	cols []string
	form *docstore.Form
	// runs[j] backs output column j; nil when the form keeps no column
	// of the field.
	runs   []*docstore.Column
	gather bool  // some run is nil
	rows   []int // selected rows; nil selects every row
	n, pos int   // selected rows, and those served
	max    int
}

func (d *docBatchIterator) Columns() []string { return d.cols }

func (d *docBatchIterator) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if d.pos >= d.n {
		return nil, io.EOF
	}
	lo, hi := d.pos, min(d.pos+d.max, d.n)
	d.pos = hi
	if d.gather {
		return buildBatch(len(d.cols), hi-lo, func(i, j int) string {
			row := lo + i
			if d.rows != nil {
				row = d.rows[row]
			}
			if c := d.runs[j]; c != nil {
				return c.Cells[row]
			}
			return d.form.Cell(row, d.cols[j])
		}), nil
	}
	var sel []int
	if d.rows != nil {
		sel = d.rows[lo:hi:hi]
		lo, hi = 0, sel[len(sel)-1]+1
	}
	vecs, slab := make([]*Vector, len(d.runs)), make([]Vector, len(d.runs))
	for j, c := range d.runs {
		v := &slab[j]
		v.n = hi - lo
		if c != nil {
			v.cells, v.mirror, v.off = c.Cells[lo:hi:hi], &c.Mirror, lo
		}
		vecs[j] = v
	}
	return &Batch{vecs: vecs, n: hi - lo, sel: sel}, nil
}

func (d *docBatchIterator) Close() error {
	d.pos = d.n
	return nil
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

// snapshotIterator serves the n records of a store snapshot (a file
// listing) as batches of up to rows rows, building each batch's
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
