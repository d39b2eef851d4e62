package query

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request is the unified query request: one statement plus typed
// execution options, consumed by the single engine entry point
// Engine.Query (and, one layer up, Lake.Query). The options compose
// with — never silently replace — what the statement says:
//
//   - Order, when set, overrides the statement's ORDER BY.
//   - Limit composes with the statement's LIMIT; the stricter bound
//     wins.
//   - FanIn selects the union strategy: 0 picks the default (one
//     puller per CPU), 1 forces the sequential source-concatenation
//     union, n > 1 drains up to n sources concurrently.
//   - BatchRows sizes the pipeline's batches (0 = DefaultBatchRows).
//     No answer depends on it; tests set it to cross batch
//     boundaries.
//   - Explain plans the query without executing it, like an EXPLAIN
//     statement.
//   - Analyze (EXPLAIN ANALYZE) executes the query to completion,
//     discards the rows, and returns the plan annotated with live
//     timings and row counts (Plan.Analyzed).
//   - Timeout is the query deadline, covering the whole stream
//     lifetime (open through last row). 0 means no deadline of its
//     own (the lake's admission defaults may still apply one).
//     Expiry surfaces as a typed deadline_exceeded error.
//   - MemoryRows is the query's memory budget: the maximum rows
//     buffered at once across the fan-in queues and the sort stage.
//     0 means unlimited (again modulo admission defaults). Exceeding
//     it fails the query fast with a typed resource_exhausted error
//     instead of letting an unbounded ORDER BY grow the heap.
//   - User is the requesting identity, forwarded to remote member
//     lakes so a federated hop authorizes as the original caller.
//     Lake.Query stamps it; engine-only callers may set it directly.
type Request struct {
	SQL        string
	Order      []OrderKey
	Limit      int
	FanIn      int
	BatchRows  int
	Explain    bool
	Analyze    bool
	Timeout    time.Duration
	MemoryRows int
	User       string
}

// DefaultFanIn is the fan-in width used when the request sets none:
// one puller per CPU. Since ORDER BY makes parallel output
// deterministic, fan-in is on by default; sequential remains reachable
// as the FanIn: 1 degenerate case.
func DefaultFanIn() int { return runtime.NumCPU() }

// Plan is the typed execution plan of one query — what EXPLAIN (and
// RowStream.Plan) reports.
type Plan struct {
	// Statement is the normalized statement text.
	Statement string `json:"statement"`
	// Sources describes the per-source access paths.
	Sources []SourcePlan `json:"sources"`
	// FanIn is the effective union width: 1 means the sequential
	// source-concatenation union, n > 1 means up to n sources drained
	// concurrently.
	FanIn int `json:"fanin"`
	// BufferRows is the per-source backpressure window of a parallel
	// union in rows, whole batches of the plan's batch size (0 when
	// sequential).
	BufferRows int `json:"buffer_rows,omitempty"`
	// Batch describes the execution mode: "columnar (N rows/batch)".
	Batch string `json:"batch,omitempty"`
	// Sort names the sort strategy: "none", "full sort", or
	// "top-k heap (k=N)".
	Sort string `json:"sort"`
	// Order echoes the effective sort keys.
	Order []string `json:"order,omitempty"`
	// Limit is the effective row cap (0 = unlimited), after composing
	// the statement's LIMIT with request/lake caps.
	Limit int `json:"limit,omitempty"`
	// MemoryRows is the query's effective memory budget in buffered
	// rows (0 = unlimited).
	MemoryRows int `json:"memory_rows,omitempty"`
	// Timeout is the query's effective deadline (0 = none).
	Timeout time.Duration `json:"timeout_ns,omitempty"`
	// Analyzed carries the live execution stats of an EXPLAIN ANALYZE:
	// the query ran to completion and these are its real counters and
	// span timings. Nil for plain EXPLAIN.
	Analyzed *ExecStats `json:"analyzed,omitempty"`
}

// SourcePlan is one FROM item's access path.
type SourcePlan struct {
	// Source is the FROM item as written.
	Source string `json:"source"`
	// Store is the member store serving it (rel, doc, file, remote).
	Store string `json:"store"`
	// Access names the store-native access path.
	Access string `json:"access"`
	// Pushdown lists the predicates evaluated inside the store;
	// predicates not listed run as a central filter stage.
	Pushdown []string `json:"pushdown,omitempty"`
	// Project lists the columns the store projects during the scan
	// (empty = the store returns its full width).
	Project []string `json:"project,omitempty"`
}

// String pretty-prints the plan, one line per fact — what lakectl
// -explain shows.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", p.Statement)
	union := "sequential (source concatenation)"
	if p.FanIn > 1 {
		union = fmt.Sprintf("parallel fan-in %d (buffer %d rows/source)", p.FanIn, p.BufferRows)
	}
	fmt.Fprintf(&sb, "  union: %s\n", union)
	if p.Batch != "" {
		fmt.Fprintf(&sb, "  batch: %s\n", p.Batch)
	}
	fmt.Fprintf(&sb, "  sort: %s", p.Sort)
	if len(p.Order) > 0 {
		fmt.Fprintf(&sb, " [%s]", strings.Join(p.Order, ", "))
	}
	sb.WriteString("\n")
	if p.Limit > 0 {
		fmt.Fprintf(&sb, "  limit: %d\n", p.Limit)
	}
	if p.MemoryRows > 0 {
		fmt.Fprintf(&sb, "  memory budget: %d buffered rows\n", p.MemoryRows)
	}
	if p.Timeout > 0 {
		fmt.Fprintf(&sb, "  timeout: %s\n", p.Timeout)
	}
	for _, s := range p.Sources {
		fmt.Fprintf(&sb, "  source %s: %s scan, %s", s.Source, s.Store, s.Access)
		if len(s.Pushdown) > 0 {
			fmt.Fprintf(&sb, ", pushdown [%s]", strings.Join(s.Pushdown, " AND "))
		}
		if len(s.Project) > 0 {
			fmt.Fprintf(&sb, ", project [%s]", strings.Join(s.Project, ", "))
		}
		sb.WriteString("\n")
	}
	if a := p.Analyzed; a != nil {
		fmt.Fprintf(&sb, "  analyzed: %d rows out\n", a.RowsOut)
		if a.Batches > 0 {
			fmt.Fprintf(&sb, "    batches: %d\n", a.Batches)
		}
		for _, s := range a.Sources {
			fmt.Fprintf(&sb, "    source %s: %d rows, blocked %s\n",
				s.Source, s.Rows, s.Blocked.Round(time.Microsecond))
		}
		for _, sp := range a.Trace {
			fmt.Fprintf(&sb, "    %s: %s\n", sp.Name, sp.Duration.Round(time.Microsecond))
		}
		if a.SortHeapRows > 0 {
			fmt.Fprintf(&sb, "    sort heap high-water: %d rows\n", a.SortHeapRows)
		}
	}
	return sb.String()
}

// Span is one named stage timing inside a query trace.
type Span struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
}

// Trace collects span timings for one query: plan, open-sources,
// execute, sort, serialize. The engine records the build-time spans;
// the stream computes execute/sort live; transport layers append their
// own (serialize) through RowStream.AddSpan. Concurrency-safe — spans
// are added by the consumer goroutine while Stats snapshots may happen
// elsewhere.
type Trace struct {
	mu    sync.Mutex
	spans []Span
}

// Add appends one span.
func (t *Trace) Add(name string, d time.Duration) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Duration: d})
	t.mu.Unlock()
}

// Spans snapshots the spans recorded so far.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SourceStats is one source's execution counters, snapshotted by
// RowStream.Stats: how many rows the union pulled from it and how long
// the pipeline spent blocked waiting on its Next — the "which member
// store is slow" signal the fan-in scheduler exists to absorb.
type SourceStats struct {
	Source  string        `json:"source"`
	Rows    int64         `json:"rows"`
	Blocked time.Duration `json:"blocked_ns"`
}

// ExecStats snapshots a stream's execution: per-source pull counters,
// the rows actually delivered to the consumer (after sort/limit), the
// per-stage trace spans, the sort stage's heap high-water mark (0 when
// the query had no sort), and the number of batches the union moved.
type ExecStats struct {
	Sources      []SourceStats `json:"sources"`
	RowsOut      int64         `json:"rows_out"`
	Trace        []Span        `json:"trace,omitempty"`
	SortHeapRows int64         `json:"sort_heap_rows,omitempty"`
	Batches      int64         `json:"batches,omitempty"`
}

// sourceCounter is the mutable, atomically-updated collector behind
// one SourceStats; parallel pullers update it concurrently with
// Stats() snapshots.
type sourceCounter struct {
	source    string
	rows      atomic.Int64
	blockedNs atomic.Int64
}

func (c *sourceCounter) snapshot() SourceStats {
	return SourceStats{
		Source:  c.source,
		Rows:    c.rows.Load(),
		Blocked: time.Duration(c.blockedNs.Load()),
	}
}

// RowStream is the result of Engine.Query / Lake.Query: the pipeline's
// batch drain (NextBatch), a row cursor over it (Next), plan
// introspection (Plan) and live per-source execution stats (Stats).
// ErrMap, when set, rewrites non-EOF errors — the Lake installs its
// lakeerr classifier there so streaming consumers keep dispatching on
// error codes.
type RowStream struct {
	// bit is the assembled pipeline; nil on an explain-only stream.
	bit      BatchIterator
	cols     []string
	plan     *Plan
	explain  bool
	counters []*sourceCounter
	rowsOut  atomic.Int64

	// cur/pos are the row cursor: the batch Next is serving from.
	cur *Batch
	pos int

	// bmeter counts the batches the union moves and carries the
	// per-batch observability hook.
	bmeter *batchMeter

	// trace carries the build-time spans the engine recorded (plan,
	// open-sources) plus any the transport appends via AddSpan. Nil on
	// explain-only streams.
	trace *Trace
	// sorter is the sort stage's handle when the plan has one, so
	// Stats can report the sort span and heap high-water mark live.
	sorter *sortIterator
	// execStartNs/execDoneNs bracket the execute span: first pull and
	// terminal event (EOF, error, or Close), CAS-set so each end is
	// stamped exactly once and Stats computes the span instead of
	// storing it.
	execStartNs atomic.Int64
	execDoneNs  atomic.Int64

	// errMu guards firstErr, the first non-EOF error the stream
	// surfaced — what Err reports to the metrics fold at close.
	errMu    sync.Mutex
	firstErr error
	// closeHooks run exactly once, after the pipeline is closed — the
	// Lake folds the final Stats into its metrics here.
	closeHooks []func()
	closeOnce  sync.Once

	// ErrMap rewrites errors before they surface from Next/NextBatch
	// (io.EOF passes through). Nil means errors surface unchanged.
	ErrMap func(error) error

	// deadline, when set, bounds the whole stream lifetime: Next and
	// NextBatch fail with context.DeadlineExceeded once it passes,
	// independent of the per-call context (an HTTP request context,
	// for example, carries no query deadline of its own). Set via
	// SetDeadline before the first pull.
	deadline time.Time
}

// SetDeadline installs the stream's deadline; zero means none. It is
// checked on every pull — per batch, and per row on the row cursor —
// so a query that outlives it fails mid-stream with a typed deadline
// error rather than running unbounded.
func (s *RowStream) SetDeadline(t time.Time) { s.deadline = t }

// check surfaces a cancelled per-call context or a passed stream
// deadline (as the standard context error, so the lakeerr classifier
// and ErrMap route it exactly like a context-level expiry).
func (s *RowStream) check(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// Columns is the stream's output header.
func (s *RowStream) Columns() []string { return s.cols }

// NextBatch returns the next columnar batch or io.EOF — the stream's
// drain. A consumer drains either batch-wise here or row-wise via
// Next, not both.
func (s *RowStream) NextBatch(ctx context.Context) (*Batch, error) {
	b, err := s.pull(ctx)
	if err != nil {
		return nil, err
	}
	s.rowsOut.Add(int64(b.Len()))
	return b, nil
}

// Next returns the next row or io.EOF; see RowIterator. It is a cursor
// over NextBatch's batches. A stream deadline (SetDeadline) that has
// passed fails the call with a deadline error even while the per-call
// context is live.
func (s *RowStream) Next(ctx context.Context) (Row, error) {
	if s.cur == nil || s.pos >= s.cur.Len() {
		b, err := s.pull(ctx)
		if err != nil {
			s.cur = nil
			return nil, err
		}
		s.cur, s.pos = b, 0
	} else if err := s.check(ctx); err != nil {
		return nil, s.fail(err)
	}
	row := s.cur.Row(s.pos)
	s.pos++
	s.rowsOut.Add(1)
	return row, nil
}

// pull takes the next batch from the pipeline.
func (s *RowStream) pull(ctx context.Context) (*Batch, error) {
	s.execStartNs.CompareAndSwap(0, time.Now().UnixNano())
	if err := s.check(ctx); err != nil {
		return nil, s.fail(err)
	}
	if s.bit == nil {
		return nil, s.fail(io.EOF)
	}
	b, err := s.bit.Next(ctx)
	if err != nil {
		return nil, s.fail(err)
	}
	return b, nil
}

// fail stamps the end of the execute span and, for a real error,
// rewrites it through ErrMap and records it as the stream's first.
func (s *RowStream) fail(err error) error {
	s.execDoneNs.CompareAndSwap(0, time.Now().UnixNano())
	if err == io.EOF {
		return err
	}
	if s.ErrMap != nil {
		err = s.ErrMap(err)
	}
	s.errMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.errMu.Unlock()
	return err
}

// BatchOutput reports whether NextBatch drains the stream; every stream
// has a batch face, so it is always true.
//
// Deprecated: call NextBatch directly.
func (s *RowStream) BatchOutput() bool { return true }

// OnBatch installs fn to observe every batch the pipeline moves (rows
// is the batch's logical row count, capacity the configured batch
// size) — the observability layer's hook for batch-size and fill-ratio
// metrics. No-op on an explain-only stream.
func (s *RowStream) OnBatch(fn func(rows, capacity int)) {
	if s.bmeter != nil {
		s.bmeter.hook.Store(&fn)
	}
}

// Close releases the stream; idempotent. Close hooks registered with
// OnClose run exactly once, after the pipeline is released.
func (s *RowStream) Close() error {
	var err error
	if s.bit != nil {
		err = s.bit.Close()
	}
	s.cur = nil
	s.execDoneNs.CompareAndSwap(0, time.Now().UnixNano())
	s.closeOnce.Do(func() {
		for _, fn := range s.closeHooks {
			fn()
		}
	})
	return err
}

// OnClose registers fn to run exactly once when the stream is closed,
// after the pipeline is released — the point where Stats is final.
func (s *RowStream) OnClose(fn func()) { s.closeHooks = append(s.closeHooks, fn) }

// AddSpan appends a span to the stream's trace — transport layers
// record serialize time here. No-op on an explain-only stream.
func (s *RowStream) AddSpan(name string, d time.Duration) {
	if s.trace != nil {
		s.trace.Add(name, d)
	}
}

// Err returns the first non-EOF error the stream surfaced, or nil on a
// clean stream.
func (s *RowStream) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

// Plan returns the typed execution plan (never nil).
func (s *RowStream) Plan() *Plan { return s.plan }

// ExplainOnly reports whether the stream is the rowless answer to an
// explain request: the Plan is the whole result.
func (s *RowStream) ExplainOnly() bool { return s.explain }

// Stats snapshots the per-source execution counters and trace. Safe to
// call while the stream is still being consumed and after Close; an
// explain-only stream reports zero counters. The execute span covers
// first Next to the terminal event (now, if the stream is still live);
// the sort span is the time the sort stage spent draining its input.
func (s *RowStream) Stats() ExecStats {
	st := ExecStats{Sources: make([]SourceStats, len(s.counters)), RowsOut: s.rowsOut.Load()}
	for i, c := range s.counters {
		st.Sources[i] = c.snapshot()
	}
	if s.trace != nil {
		st.Trace = s.trace.Spans()
	}
	if start := s.execStartNs.Load(); start != 0 {
		done := s.execDoneNs.Load()
		if done == 0 {
			done = time.Now().UnixNano()
		}
		st.Trace = append(st.Trace, Span{Name: "execute", Duration: time.Duration(done - start)})
	}
	if s.sorter != nil {
		st.Trace = append(st.Trace, Span{Name: "sort", Duration: time.Duration(s.sorter.fillNs.Load())})
		st.SortHeapRows = s.sorter.maxHeld.Load()
	}
	if s.bmeter != nil {
		st.Batches = s.bmeter.batches.Load()
	}
	return st
}
