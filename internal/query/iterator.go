package query

import (
	"context"
	"io"

	"golake/internal/table"
)

// Row is one result record; cells are ordered like the producing
// iterator's Columns.
type Row = []string

// RowIterator is the row face of a query result: a RowStream serves
// its batches one row at a time through it, and a remote member's
// stream is one too. The engine's stages are BatchIterators; rows exist
// only at the output.
//
// Next returns io.EOF after the last row; any other error terminates
// the stream. Iterators are single-consumer and not safe for
// concurrent use. Callers must Close the iterator when done (also
// after an error), releasing per-source scan state; Close is
// idempotent.
type RowIterator interface {
	// Columns is the output header, fixed for the iterator's lifetime.
	Columns() []string
	// Next returns the next row or io.EOF. The context is checked
	// between rows, so cancellation takes effect mid-stream, not just
	// between sources.
	Next(ctx context.Context) (Row, error)
	// Close releases the iterator's resources.
	Close() error
}

// Collect drains a stream into a materialized table named "result"
// (column types inferred), appending whole vector runs per batch, and
// closes it afterwards.
func Collect(ctx context.Context, st *RowStream) (*table.Table, error) {
	defer st.Close()
	out := table.New("result")
	for _, c := range st.Columns() {
		out.Columns = append(out.Columns, &table.Column{Name: c})
	}
	for {
		b, err := st.NextBatch(ctx)
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
