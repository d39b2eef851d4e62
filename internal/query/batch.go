package query

import (
	"context"
	"io"
	"sync/atomic"
	"time"
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
// batches downstream, so per-row interface dispatch and allocation are
// paid once per ~1024 rows instead of once per row.
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

// Row materializes logical row i — RowStream's row cursor.
func (b *Batch) Row(i int) Row {
	p := b.rowIndex(i)
	row := make(Row, len(b.vecs))
	for j, v := range b.vecs {
		row[j] = v.Cell(p)
	}
	return row
}

// AppendRowJSON appends logical row i as one NDJSON row line,
// byte-identical to ndjson.AppendRow(dst, b.Row(i)): a cell of a stored
// column is copied from the store's encoding of it, any other cell is
// encoded as it is written. Nothing is allocated but dst's growth.
func (b *Batch) AppendRowJSON(dst []byte, i int) []byte {
	p := b.rowIndex(i)
	dst = append(dst, '[')
	for j, v := range b.vecs {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = v.appendJSON(dst, p)
	}
	return append(dst, ']', '\n')
}

// BatchIterator is the engine's stage interface: every leaf and stage
// (scan, filter, union, fan-in, sort, limit) implements it, moving one
// Batch per Next. Next returns io.EOF after the last batch and never returns
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

// BatchScanner is a row source that can also hand its rows over
// column-major — a remote member's stream decodes the wire that way.
// NextBatch is BatchIterator.Next with up to rows rows per batch.
type BatchScanner interface {
	RowIterator
	NextBatch(ctx context.Context, rows int) (*Batch, error)
}

// batchesIterator is a remote member's stream as a pipeline leaf.
type batchesIterator struct {
	in     BatchScanner
	rows   int
	closed bool
}

// Batches adapts a BatchScanner to a BatchIterator of up to rows rows
// per batch (DefaultBatchRows when rows <= 0).
func Batches(in BatchScanner, rows int) BatchIterator {
	if rows <= 0 {
		rows = DefaultBatchRows
	}
	return &batchesIterator{in: in, rows: rows}
}

func (b *batchesIterator) Columns() []string { return b.in.Columns() }

func (b *batchesIterator) Next(ctx context.Context) (*Batch, error) {
	if b.closed {
		return nil, io.EOF
	}
	return b.in.NextBatch(ctx, b.rows)
}

func (b *batchesIterator) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	return b.in.Close()
}

// buildBatch fills a k-row batch over cols column by column through
// cell(i, j), carving every column run out of one backing array — how
// the snapshot leaves and the sort stage turn records into vectors.
func buildBatch(cols []string, k int, cell func(i, j int) string) *Batch {
	cells := make([]string, k*len(cols))
	vecs := make([]*Vector, len(cols))
	for j := range vecs {
		run := cells[j*k : (j+1)*k : (j+1)*k]
		for i := range run {
			run[i] = cell(i, j)
		}
		vecs[j] = NewVector(run)
	}
	// n is set explicitly: a record set with no columns still has rows.
	return &Batch{cols: cols, vecs: vecs, n: k}
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

// meteredBatchIterator instruments one source's batch scan with its
// per-source counter: rows pulled and time blocked.
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
