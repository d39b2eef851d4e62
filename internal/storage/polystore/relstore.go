// Package polystore provides integrated access to a hybrid of data
// stores — relational, document, graph, and raw files — following the
// polystore storage tier of Constance and CoreDB (Sec. 4.3 of the
// survey): each ingested dataset is routed to the store matching its
// original data model, with raw files as the fallback, and users may
// override the placement.
package polystore

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"golake/internal/table"
)

// ErrNoTable is returned for missing relational tables.
var ErrNoTable = errors.New("polystore: no such table")

// RelStore is an in-process relational store (the MySQL/PostgreSQL
// stand-in): named tables with scan and predicate evaluation. Predicate
// pushdown in the federated query engine lands here.
type RelStore struct {
	mu     sync.RWMutex
	tables map[string]*table.Table
}

// NewRelStore creates an empty relational store.
func NewRelStore() *RelStore {
	return &RelStore{tables: map[string]*table.Table{}}
}

// Create registers (or replaces) a table under its name.
func (r *RelStore) Create(t *table.Table) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tables[t.Name] = t.Clone()
}

// Table returns a deep copy of the named table.
func (r *RelStore) Table(name string) (*table.Table, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t.Clone(), nil
}

// View calls fn with the named table itself, not a copy, while holding
// the store's read lock: fn must not modify the table, keep it after it
// returns, or write to the store. A missing table is ErrNoTable and fn
// is not called; otherwise View returns fn's error.
func (r *RelStore) View(name string, fn func(*table.Table) error) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tables[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return fn(t)
}

// ColumnNames returns the column names of a table without copying its
// data (the federated engine consults this when planning pushdown).
func (r *RelStore) ColumnNames(name string) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t.ColumnNames(), nil
}

// Has reports whether a table exists.
func (r *RelStore) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.tables[name]
	return ok
}

// Drop removes a table.
func (r *RelStore) Drop(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tables[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	delete(r.tables, name)
	return nil
}

// Names returns all table names, sorted.
func (r *RelStore) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tables))
	for n := range r.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Select scans a table, applying an optional row predicate and column
// projection in the store — the "pushdown" unit of the federated engine.
func (r *RelStore) Select(name string, pred func(row map[string]string) bool, cols []string) (*table.Table, error) {
	r.mu.RLock()
	t, ok := r.tables[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	names := t.ColumnNames()
	filtered := t.Filter(func(row []string) bool {
		if pred == nil {
			return true
		}
		m := make(map[string]string, len(names))
		for i, n := range names {
			m[n] = row[i]
		}
		return pred(m)
	})
	if len(cols) == 0 {
		return filtered, nil
	}
	return filtered.Project(cols...)
}

// CellPredicate is a compiled single-column predicate evaluated inside
// the store during the scan — the unit of predicate pushdown.
type CellPredicate struct {
	Column string
	Match  func(cell string) bool
}

// SelectWhere scans a table with compiled per-column predicates and a
// projection, both evaluated inside the store: predicate columns are
// resolved to indexes once, and only projected columns are copied out.
// This is the materialized form of ScanWhere; Select remains for
// callers wanting arbitrary row predicates.
func (r *RelStore) SelectWhere(name string, preds []CellPredicate, cols []string) (*table.Table, error) {
	cur, err := r.ScanWhere(name, preds, cols)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	out := table.New(name)
	for i, n := range cur.Columns() {
		out.Columns = append(out.Columns, &table.Column{Name: n, Kind: cur.kinds[i]})
	}
	for {
		row, ok := cur.Next()
		if !ok {
			return out, nil
		}
		for j, v := range row {
			out.Columns[j].Cells = append(out.Columns[j].Cells, v)
		}
	}
}

// Cursor streams matching rows out of one relational table, one Next
// call per row — the store-side scan unit of the streaming query
// pipeline. It reads a snapshot taken at ScanWhere time (captured
// column slices), so a scan is consistent under concurrent Insert and
// Create without holding the store lock while the caller drains it.
type Cursor struct {
	names []string
	kinds []table.Kind
	// cells[j] backs output column j; preds carry their own snapshots
	// so predicate columns need not survive the projection.
	cells [][]string
	preds []boundPredicate
	n, at int
}

type boundPredicate struct {
	cells []string
	match func(string) bool
}

// Columns returns the cursor's output header.
func (c *Cursor) Columns() []string { return c.names }

// Next returns the next matching row, or false when the scan is done.
// Each call allocates one fresh row slice.
func (c *Cursor) Next() ([]string, bool) {
rows:
	for c.at < c.n {
		i := c.at
		c.at++
		for _, bp := range c.preds {
			if !bp.match(bp.cells[i]) {
				continue rows
			}
		}
		row := make([]string, len(c.cells))
		for j, col := range c.cells {
			row[j] = col[i]
		}
		return row, true
	}
	return nil, false
}

// NextBatch returns up to max rows column-wise: cells[j] is the run of
// output column j, n the number of rows (0 when the scan is done).
// This is the store-side batch scan of the columnar pipeline: without
// predicates the runs are zero-copy subslices of the snapshot — no
// cell is copied or re-sliced per row — and with predicates matching
// rows are compacted into fresh runs until max rows match or the
// snapshot ends. The returned runs stay valid after Close (they alias
// or copy the snapshot, which concurrent Inserts never mutate).
func (c *Cursor) NextBatch(max int) (cells [][]string, n int) {
	if max <= 0 {
		max = 1
	}
	if c.at >= c.n {
		return nil, 0
	}
	if len(c.preds) == 0 {
		end := c.at + max
		if end > c.n {
			end = c.n
		}
		cells = make([][]string, len(c.cells))
		for j, col := range c.cells {
			cells[j] = col[c.at:end:end]
		}
		n = end - c.at
		c.at = end
		return cells, n
	}
	cells = make([][]string, len(c.cells))
rows:
	for c.at < c.n && n < max {
		i := c.at
		c.at++
		for _, bp := range c.preds {
			if !bp.match(bp.cells[i]) {
				continue rows
			}
		}
		for j, col := range c.cells {
			cells[j] = append(cells[j], col[i])
		}
		n++
	}
	if n == 0 {
		return nil, 0
	}
	return cells, n
}

// Close releases the snapshot. Idempotent.
func (c *Cursor) Close() error {
	c.at = c.n
	c.cells = nil
	c.preds = nil
	return nil
}

// ScanWhere opens a streaming scan with compiled per-column predicates
// and a projection, both evaluated inside the store as rows are
// pulled. A predicate on a missing column matches nothing (an empty
// cursor keeping the projected header); projected columns that do not
// exist are dropped. Empty cols projects every column.
func (r *RelStore) ScanWhere(name string, preds []CellPredicate, cols []string) (*Cursor, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	n := t.NumRows()
	cur := &Cursor{n: n}
	for _, p := range preds {
		c, err := t.Column(p.Column)
		if err != nil {
			// Predicate on a missing column matches nothing.
			return emptyCursorLike(t, cols), nil
		}
		cur.preds = append(cur.preds, boundPredicate{cells: c.Cells[:n], match: p.Match})
	}
	outCols := t.Columns
	if len(cols) > 0 {
		outCols = outCols[:0:0]
		for _, name := range cols {
			c, err := t.Column(name)
			if err != nil {
				continue
			}
			outCols = append(outCols, c)
		}
	}
	for _, c := range outCols {
		cur.names = append(cur.names, c.Name)
		cur.kinds = append(cur.kinds, c.Kind)
		// Capture the slice header up to the snapshot length: later
		// Inserts append past n (or reallocate) without touching the
		// cells this scan reads.
		cur.cells = append(cur.cells, c.Cells[:n])
	}
	return cur, nil
}

// ScanWhereShards opens the same snapshot scan as ScanWhere split into
// shards range-partitioned cursors: shard k reads rows [k*n/shards,
// (k+1)*n/shards) of the snapshot, so draining all of them through a
// parallel fan-in yields exactly the rows one ScanWhere cursor would —
// the intra-source parallelism unit of large single-table scans. All
// shards alias one snapshot (slice headers captured under the store
// lock once), so the split costs O(shards), not O(rows). shards < 1 is
// treated as 1.
func (r *RelStore) ScanWhereShards(name string, preds []CellPredicate, cols []string, shards int) ([]*Cursor, error) {
	if shards < 1 {
		shards = 1
	}
	base, err := r.ScanWhere(name, preds, cols)
	if err != nil {
		return nil, err
	}
	if shards == 1 {
		return []*Cursor{base}, nil
	}
	out := make([]*Cursor, shards)
	for k := 0; k < shards; k++ {
		start := k * base.n / shards
		end := (k + 1) * base.n / shards
		out[k] = &Cursor{
			names: base.names,
			kinds: base.kinds,
			cells: base.cells,
			preds: base.preds,
			n:     end,
			at:    start,
		}
	}
	return out, nil
}

func emptyCursorLike(t *table.Table, cols []string) *Cursor {
	names := cols
	if len(names) == 0 {
		names = t.ColumnNames()
	}
	return &Cursor{names: names, kinds: make([]table.Kind, len(names))}
}

// Insert appends rows to an existing table.
func (r *RelStore) Insert(name string, rows [][]string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tables[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	for _, row := range rows {
		if err := t.AppendRow(row); err != nil {
			return err
		}
	}
	return nil
}
