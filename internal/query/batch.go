package query

import (
	"context"
	"io"
	"sync/atomic"
	"time"

	"golake/internal/table"
)

// DefaultBatchRows is the row capacity of one pipeline batch when
// neither the request nor the engine configures one. ~1024 rows keeps
// a batch of a few columns inside the L2 cache while amortizing the
// per-batch stage dispatch over enough rows that it disappears from
// profiles.
const DefaultBatchRows = 1024

// Batch is the columnar unit of vectorized execution: a header, one
// typed Vector per column, and an optional selection. All vectors have
// the same physical length; Sel, when non-nil, lists the physical row
// indexes that are logically present (what a vectorized filter
// produces — no row is copied to drop a row). Stages hand whole
// batches downstream, so the per-row interface dispatch and per-row
// allocations of the row pipeline are paid once per ~1024 rows
// instead of once per row.
type Batch struct {
	cols []string
	vecs []*Vector
	// n is the physical row count of the vectors.
	n int
	// sel is the selection: physical row indexes in logical order, or
	// nil when every physical row is selected.
	sel []int
}

// NewBatch builds a batch over vectors (one per column, equal
// lengths). The slices are referenced, not copied.
func NewBatch(cols []string, vecs []*Vector) *Batch {
	n := 0
	if len(vecs) > 0 {
		n = vecs[0].Len()
	}
	return &Batch{cols: cols, vecs: vecs, n: n}
}

// Columns is the batch header.
func (b *Batch) Columns() []string { return b.cols }

// Len returns the logical (selected) row count.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// Vector returns column j's vector.
func (b *Batch) Vector(j int) *Vector { return b.vecs[j] }

// Sel returns the selection (nil = all physical rows).
func (b *Batch) Sel() []int { return b.sel }

// rowIndex maps logical row i onto its physical index.
func (b *Batch) rowIndex(i int) int {
	if b.sel != nil {
		return b.sel[i]
	}
	return i
}

// Cell returns logical row i of column j in wire form.
func (b *Batch) Cell(i, j int) string { return b.vecs[j].Cell(b.rowIndex(i)) }

// Row materializes logical row i — the bridge to row-shaped consumers.
func (b *Batch) Row(i int) Row {
	row := make(Row, len(b.vecs))
	b.CopyRow(row, i)
	return row
}

// CopyRow writes logical row i into dst (len >= column count) without
// allocating — serialization reuses one scratch row across a stream.
func (b *Batch) CopyRow(dst Row, i int) {
	p := b.rowIndex(i)
	for j, v := range b.vecs {
		dst[j] = v.Cell(p)
	}
}

// BatchIterator is the columnar counterpart of RowIterator: every
// vectorized stage implements it, moving one Batch per Next instead of
// one row. Next returns io.EOF after the last batch and never returns
// an empty batch; any other error terminates the stream. Iterators are
// single-consumer; Close is idempotent and must be called when done.
type BatchIterator interface {
	// Columns is the output header, fixed for the iterator's lifetime.
	Columns() []string
	// Next returns the next non-empty batch or io.EOF. The context is
	// checked between batches, so cancellation takes effect mid-stream.
	Next(ctx context.Context) (*Batch, error)
	// Close releases the iterator's resources.
	Close() error
}

// rowsIterator adapts a batch stream back to the row interface — the
// sink-side adapter that keeps every row-shaped consumer working on
// top of a vectorized pipeline.
type rowsIterator struct {
	in     BatchIterator
	b      *Batch
	pos    int
	closed bool
}

// Rows adapts a BatchIterator to a RowIterator: one materialized row
// per Next, pulled batch-by-batch underneath.
func Rows(in BatchIterator) RowIterator {
	return &rowsIterator{in: in}
}

func (r *rowsIterator) Columns() []string { return r.in.Columns() }

func (r *rowsIterator) Next(ctx context.Context) (Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.closed {
		return nil, io.EOF
	}
	for r.b == nil || r.pos >= r.b.Len() {
		b, err := r.in.Next(ctx)
		if err != nil {
			return nil, err
		}
		r.b, r.pos = b, 0
	}
	row := r.b.Row(r.pos)
	r.pos++
	return row, nil
}

func (r *rowsIterator) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.b = nil
	return r.in.Close()
}

// BatchScanner is a row source that can also hand its rows over
// column-major (a remote member's stream decodes the wire that way).
// NextBatch is BatchIterator.Next with up to rows rows per batch.
type BatchScanner interface {
	RowIterator
	NextBatch(ctx context.Context, rows int) (*Batch, error)
}

// batchesIterator adapts a row stream to the batch interface — the
// source-side adapter that lets row-oriented sources participate in a
// vectorized pipeline.
type batchesIterator struct {
	in     RowIterator
	scan   BatchScanner // in's own batch face, when it has one
	rows   int
	closed bool
}

// Batches adapts a RowIterator to a BatchIterator of up to rows rows
// per batch (DefaultBatchRows when rows <= 0): a BatchScanner's own
// batches when in is one, else its rows accumulated into column runs.
func Batches(in RowIterator, rows int) BatchIterator {
	if rows <= 0 {
		rows = DefaultBatchRows
	}
	scan, _ := in.(BatchScanner)
	return &batchesIterator{in: in, scan: scan, rows: rows}
}

func (b *batchesIterator) Columns() []string { return b.in.Columns() }

func (b *batchesIterator) Next(ctx context.Context) (*Batch, error) {
	if b.closed {
		return nil, io.EOF
	}
	if b.scan != nil {
		return b.scan.NextBatch(ctx, b.rows)
	}
	cols := b.in.Columns()
	var cells [][]string
	n := 0
	for n < b.rows {
		row, err := b.in.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			if n > 0 && ctx.Err() != nil {
				// Transient cancellation: the accumulated rows would be
				// lost if surfaced now. Per the batch contract an error
				// terminates the stream, so hand the partial batch back
				// and let the next call surface the cancellation.
				break
			}
			return nil, err
		}
		if cells == nil {
			cells = make([][]string, len(cols))
		}
		for j, v := range row {
			cells[j] = append(cells[j], v)
		}
		n++
	}
	if n == 0 {
		return nil, io.EOF
	}
	vecs := make([]*Vector, len(cols))
	for j := range vecs {
		vecs[j] = NewVector(cells[j])
	}
	return NewBatch(cols, vecs), nil
}

func (b *batchesIterator) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	return b.in.Close()
}

// batchSource is how row-shaped entry points discover that a stream
// can also be drained columnar (RowStream implements it when the
// engine picked the batch pipeline).
type batchSource interface {
	BatchOutput() bool
	NextBatch(ctx context.Context) (*Batch, error)
	Columns() []string
	Close() error
}

// CollectBatches drains a batch stream into a materialized table named
// "result", appending whole vectors column-wise instead of pulling one
// row at a time, and closes it afterwards.
func CollectBatches(ctx context.Context, it BatchIterator) (*table.Table, error) {
	defer it.Close()
	out := table.New("result")
	for _, c := range it.Columns() {
		out.Columns = append(out.Columns, &table.Column{Name: c})
	}
	for {
		b, err := it.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for j := range out.Columns {
			out.Columns[j].Cells = b.Vector(j).AppendTo(out.Columns[j].Cells, b.Sel())
		}
	}
	out.InferTypes()
	return out, nil
}

// collectBatchSource is CollectBatches over a batchSource (RowStream's
// columnar face); Collect dispatches here when the stream is batch-
// shaped so materializing callers get the column-wise drain for free.
func collectBatchSource(ctx context.Context, it batchSource) (*table.Table, error) {
	defer it.Close()
	out := table.New("result")
	for _, c := range it.Columns() {
		out.Columns = append(out.Columns, &table.Column{Name: c})
	}
	for {
		b, err := it.NextBatch(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for j := range out.Columns {
			out.Columns[j].Cells = b.Vector(j).AppendTo(out.Columns[j].Cells, b.Sel())
		}
	}
	out.InferTypes()
	return out, nil
}

// batchMeter instruments the top of a batch pipeline: batches and rows
// delivered (what ExecStats.Batches and the batch-size metrics
// report), plus an optional per-batch hook the observability layer
// installs after the stream opens. Counters are atomic so Stats
// snapshots race-cleanly with consumption.
type batchMeter struct {
	in       BatchIterator
	capacity int
	batches  atomic.Int64
	rows     atomic.Int64
	hook     atomic.Pointer[func(rows, capacity int)]
}

func (m *batchMeter) Columns() []string { return m.in.Columns() }

func (m *batchMeter) Next(ctx context.Context) (*Batch, error) {
	b, err := m.in.Next(ctx)
	if err != nil {
		return nil, err
	}
	m.batches.Add(1)
	m.rows.Add(int64(b.Len()))
	if h := m.hook.Load(); h != nil {
		(*h)(b.Len(), m.capacity)
	}
	return b, nil
}

func (m *batchMeter) Close() error { return m.in.Close() }

// meteredBatchIterator instruments one source's batch scan with the
// shared per-source counter: rows pulled and time blocked, the same
// series the row pipeline's meteredIterator records, so Stats are
// comparable across pipeline modes.
type meteredBatchIterator struct {
	in BatchIterator
	c  *sourceCounter
}

func (m *meteredBatchIterator) Columns() []string { return m.in.Columns() }

func (m *meteredBatchIterator) Next(ctx context.Context) (*Batch, error) {
	start := time.Now()
	b, err := m.in.Next(ctx)
	m.c.blockedNs.Add(int64(time.Since(start)))
	if err == nil {
		m.c.rows.Add(int64(b.Len()))
	}
	return b, err
}

func (m *meteredBatchIterator) Close() error { return m.in.Close() }
