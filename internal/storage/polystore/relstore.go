// Package polystore provides integrated access to a hybrid of data
// stores — relational, document, and raw files — following the
// polystore storage tier of Constance and CoreDB (Sec. 4.3 of the
// survey): each ingested dataset is routed to the store matching its
// original data model, with raw files as the fallback, and users may
// override the placement.
package polystore

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"golake/internal/ndjson"
	"golake/internal/table"
)

// ErrNoTable is returned for missing relational tables.
var ErrNoTable = errors.New("polystore: no such table")

// RelStore is an in-process relational store (the MySQL/PostgreSQL
// stand-in): named tables with scan and predicate evaluation. Predicate
// pushdown in the federated query engine lands here. A stored table
// never changes after Create (a second Create replaces it whole), so
// what a scan derives from a column can be kept with it.
type RelStore struct {
	mu     sync.RWMutex
	tables map[string]*storedTable
}

// storedTable is a table as the store keeps it: the table Create was
// given and one mirror per column.
type storedTable struct {
	*table.Table
	mirrors []Mirror
}

// Mirror keeps what reads derive from one stored column, each form
// built on its own first use and kept for the table's life. The float
// form (table.ParseNumbers of the cells) is built on the column's first
// numeric read: 8 bytes per cell plus one bit, only the bits when no
// cell parses. The wire form is built on its first NDJSON read: every
// cell as a JSON string literal (ndjson.AppendString), back to back in
// one arena, plus a 4-byte offset per cell.
type Mirror struct {
	cells []string

	numsOnce sync.Once
	nums     table.Numbers

	jsonOnce sync.Once
	arena    []byte
	ends     []uint32
}

// Numbers returns the float form, building it on first use. Safe for
// concurrent use.
func (m *Mirror) Numbers() *table.Numbers {
	m.numsOnce.Do(func() { m.nums = table.ParseNumbers(m.cells) })
	return &m.nums
}

// JSON returns the wire form, building it on first use: cell k encodes
// as arena[ends[k]:ends[k+1]]. Both are nil for a column whose encoding
// exceeds 4 GiB, which 32-bit offsets cannot address; its readers
// encode its cells themselves. Safe for concurrent use.
func (m *Mirror) JSON() (arena []byte, ends []uint32) {
	m.jsonOnce.Do(func() { m.arena, m.ends = encodeJSON(m.cells, math.MaxUint32) })
	return m.arena, m.ends
}

// encodeJSON encodes cells as JSON string literals back to back, or
// returns nils when they take more than limit bytes. The arena is sized
// for cells that need no escape, the common case, and copied to its
// final size when some did, so what stays resident is the encoding and
// its offsets.
func encodeJSON(cells []string, limit uint64) ([]byte, []uint32) {
	// A literal is never shorter than its cell and two quotes.
	size := uint64(2 * len(cells))
	for _, c := range cells {
		size += uint64(len(c))
	}
	if size > limit {
		return nil, nil
	}
	arena := make([]byte, 0, size)
	ends := make([]uint32, 1, len(cells)+1)
	for _, c := range cells {
		arena = ndjson.AppendString(arena, c)
		if uint64(len(arena)) > limit {
			return nil, nil
		}
		ends = append(ends, uint32(len(arena)))
	}
	if cap(arena) > len(arena) {
		arena = append(make([]byte, 0, len(arena)), arena...)
	}
	return arena, ends
}

// NewRelStore creates an empty relational store.
func NewRelStore() *RelStore {
	return &RelStore{tables: map[string]*storedTable{}}
}

// Create registers (or replaces) a table under its name. The store
// takes ownership of t: the caller must not modify it afterwards, and
// hands the store a Clone of any table it goes on changing. Its
// mirrors' forms are built later, each on its column's first numeric or
// NDJSON read, so replaying a lake's tables parses and encodes no cell.
func (r *RelStore) Create(t *table.Table) {
	s := &storedTable{Table: t, mirrors: make([]Mirror, len(t.Columns))}
	for j, c := range s.Columns {
		s.mirrors[j].cells = c.Cells
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tables[t.Name] = s
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
	return fn(t.Table)
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

// CellPredicate is a compiled single-column predicate evaluated inside
// the store during the scan — the unit of predicate pushdown.
type CellPredicate struct {
	Column string
	Match  func(cell string) bool
}

// Cursor streams matching rows out of one relational table, a batch of
// column runs per NextBatch call — the store-side scan unit of the
// streaming query pipeline. It reads the table captured at ScanWhere
// time, so a scan is consistent under a concurrent Create or Drop of
// its table without holding the store lock while the caller drains it.
type Cursor struct {
	names []string
	kinds []table.Kind
	// cells[j] backs output column j and mirrors[j] is its mirror;
	// preds carry their own cells so predicate columns need not survive
	// the projection.
	cells   [][]string
	mirrors []*Mirror
	preds   []boundPredicate
	n, at   int
	// first is the row the last NextBatch's runs start at.
	first int
}

type boundPredicate struct {
	cells []string
	match func(string) bool
}

// Columns returns the cursor's output header.
func (c *Cursor) Columns() []string { return c.names }

// NextBatch returns up to max rows column-wise: cells[j] is the run of
// output column j, n the number of rows (0 when the scan is done).
// This is the store-side batch scan of the columnar pipeline: without
// predicates the runs are zero-copy subslices of the stored columns —
// no cell is copied or re-sliced per row — and with predicates matching
// rows are compacted into fresh runs until max rows match or the
// table ends. The returned runs stay valid after Close (they alias
// or copy cells no one mutates).
func (c *Cursor) NextBatch(max int) (cells [][]string, n int) {
	if max <= 0 {
		max = 1
	}
	if c.at >= c.n {
		return nil, 0
	}
	c.first = c.at
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

// Mirror returns output column j's mirror and the row the last
// NextBatch's runs start at in it: cell i of that batch's run j is row
// off+i of the mirror. It is nil for a cursor with predicates, whose
// runs compact the matching rows.
func (c *Cursor) Mirror(j int) (m *Mirror, off int) {
	if len(c.preds) > 0 || j >= len(c.mirrors) {
		return nil, 0
	}
	return c.mirrors[j], c.first
}

// Close releases the captured table. Idempotent.
func (c *Cursor) Close() error {
	c.at = c.n
	c.cells = nil
	c.mirrors = nil
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
	cur := &Cursor{n: t.NumRows()}
	for _, p := range preds {
		j := columnIndex(t.Table, p.Column)
		if j < 0 {
			// Predicate on a missing column matches nothing.
			return emptyCursorLike(t.Table, cols), nil
		}
		cur.preds = append(cur.preds, boundPredicate{cells: t.Columns[j].Cells, match: p.Match})
	}
	add := func(j int) {
		c := t.Columns[j]
		cur.names = append(cur.names, c.Name)
		cur.kinds = append(cur.kinds, c.Kind)
		cur.cells = append(cur.cells, c.Cells)
		cur.mirrors = append(cur.mirrors, &t.mirrors[j])
	}
	if len(cols) == 0 {
		for j := range t.Columns {
			add(j)
		}
	}
	for _, name := range cols {
		if j := columnIndex(t.Table, name); j >= 0 {
			add(j)
		}
	}
	return cur, nil
}

// columnIndex is the index of the named column, -1 when there is none.
func columnIndex(t *table.Table, name string) int {
	for j, c := range t.Columns {
		if c.Name == name {
			return j
		}
	}
	return -1
}

func emptyCursorLike(t *table.Table, cols []string) *Cursor {
	names := cols
	if len(names) == 0 {
		names = t.ColumnNames()
	}
	return &Cursor{names: names, kinds: make([]table.Kind, len(names))}
}
