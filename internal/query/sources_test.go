package query

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"testing"
)

// probeSource is the stage tests' synthetic member store: n rows
// (cell(i, j) renders row i, column j) served as batches of up to
// batch rows (one when unset), counting rows pulled and closes. With
// err set it fails once failAfter rows are out. One goroutine pulls it
// at a time, as a fan-in puller does; the counters are atomic so the
// test may read them meanwhile.
type probeSource struct {
	cols      []string
	n         int
	cell      func(i, j int) string
	batch     int
	failAfter int
	err       error
	pulled    atomic.Int64
	closes    atomic.Int64
}

// rowsSource serves fixed rows.
func rowsSource(cols []string, rows [][]string, batch int) *probeSource {
	return &probeSource{cols: cols, n: len(rows), batch: batch, cell: func(i, j int) string { return rows[i][j] }}
}

// countSource serves n one-column rows "<prefix>1", "<prefix>2", ...
func countSource(prefix string, n, batch int) *probeSource {
	return &probeSource{cols: []string{"a"}, n: n, batch: batch, cell: func(i, _ int) string { return fmt.Sprintf("%s%d", prefix, i+1) }}
}

func (p *probeSource) Columns() []string { return p.cols }

func (p *probeSource) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	at := int(p.pulled.Load())
	end := min(at+max(p.batch, 1), p.n)
	if p.err != nil {
		if at >= p.failAfter {
			return nil, p.err
		}
		end = min(end, p.failAfter)
	}
	if at >= end {
		return nil, io.EOF
	}
	b := buildBatch(len(p.cols), end-at, func(i, j int) string { return p.cell(at+i, j) })
	p.pulled.Store(int64(end))
	return b, nil
}

func (p *probeSource) Close() error {
	p.closes.Add(1)
	return nil
}

// gatedSource blocks every Next until the gate opens, then serves its
// rows one per batch — the synthetic stalled member store.
type gatedSource struct {
	cols   []string
	gate   chan struct{}
	rows   []Row
	pos    int
	closes atomic.Int64
}

func (g *gatedSource) Columns() []string { return g.cols }

func (g *gatedSource) Next(ctx context.Context) (*Batch, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if g.pos >= len(g.rows) {
		return nil, io.EOF
	}
	g.pos++
	return NewBatch([]*Vector{NewVector(g.rows[g.pos-1])}), nil
}

func (g *gatedSource) Close() error {
	g.closes.Add(1)
	return nil
}

// drainBatches drains a batch stream into rows.
func drainBatches(t *testing.T, it BatchIterator) [][]string {
	t.Helper()
	var out [][]string
	for {
		b, err := it.Next(context.Background())
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
	}
}

func sortedRows(rows [][]string) [][]string {
	out := append([][]string(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		return fmt.Sprint(out[i]) < fmt.Sprint(out[j])
	})
	return out
}
