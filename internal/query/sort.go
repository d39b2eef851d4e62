package query

import (
	"container/heap"
	"context"
	"io"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// sortBatches wraps a batch stream with the ORDER BY stage; keys is not
// empty. With limit > 0 it keeps a bounded top-K heap — memory never
// exceeds limit rows no matter how many the input yields, the stage
// subsumes the LIMIT, and once the heap is full most rows are turned
// away on their first key's vector alone (see drain) — otherwise it
// buffers and sorts the full input. Either way the input
// is drained on the first Next and closed eagerly, and the order is
// total (keys, then the whole row as tiebreak), so the output is
// byte-identical regardless of the arrival order a parallel fan-in
// produced. Sorted rows leave as batches of up to batchRows rows.
//
// Every row admitted to the buffer is charged against budget (nil is
// unlimited) and released as it leaves, so an unbounded ORDER BY over
// a budgeted query fails fast with ErrBudgetExceeded instead of
// buffering the whole input; a top-K replacement is footprint-neutral
// and charges nothing. Close releases the buffered rows; it is
// idempotent, and the buffer is dropped as soon as the last row leaves
// rather than held until Close.
func sortBatches(in BatchIterator, keys []OrderKey, limit int, budget *MemBudget, batchRows int) *sortIterator {
	s := &sortIterator{in: in, keys: keys, keyCol: make([]int, len(keys)), width: len(in.Columns()),
		limit: limit, rows: max(batchRows, 1), budget: budget}
	for k, key := range keys {
		s.keyCol[k] = -1
		for j, c := range in.Columns() {
			if c == key.Column {
				s.keyCol[k] = j
				break
			}
		}
	}
	return s
}

// sortKey is one key cell as the comparator reads it: its text and,
// when it is a number, its value — parsed once, from the input
// vector's float mirror, instead of on every compare.
type sortKey struct {
	text  string
	num   float64
	isNum bool
}

// sortRow is one row as the sort stage orders it. A row the stage holds
// owns its cells; a candidate still being compared reads them from its
// batch (b set), so a row the heap rejects is never copied. A row a full
// heap turns away on its first key never becomes a candidate at all.
type sortRow struct {
	keys  []sortKey
	cells []string
	b     *Batch
	i     int
}

func (r *sortRow) cell(j int) string {
	if r.b != nil {
		return r.b.Cell(r.i, j)
	}
	return r.cells[j]
}

// sortIterator is the sort stage: a pipeline breaker that fills its
// buffer from the input on first use, then serves batches from it.
type sortIterator struct {
	in     BatchIterator
	keys   []OrderKey
	keyCol []int // input column of each key, -1 when absent (reads as "")
	width  int
	limit  int
	rows   int
	// budget, when set, is charged one row per buffered row; charged
	// tracks the stage's outstanding charge (consumer-side state, no
	// locking needed).
	budget  *MemBudget
	charged int

	buf []*sortRow
	// free is preallocated row storage: rows are carved from chunks, so
	// buffering costs a few allocations per chunk instead of per row.
	free   []sortRow
	pos    int
	filled bool
	// maxHeld is the buffer's high-water mark — the top-K memory bound
	// the tests assert and the golake_query_sort_heap_rows metric
	// observes. Atomic so Stats snapshots race-cleanly with fill.
	maxHeld atomic.Int64
	// fillNs accumulates wall time spent draining and sorting the input
	// — the "sort" trace span. Atomic for the same reason.
	fillNs atomic.Int64
	err    error
	closed bool
	// inClosed tracks whether the input was already released (it is
	// closed eagerly once drained, before the consumer sees a row).
	inClosed bool
}

func (s *sortIterator) Columns() []string { return s.in.Columns() }

func (s *sortIterator) Next(ctx context.Context) (*Batch, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, io.EOF
	}
	// Checked even when serving from the filled buffer: cancellation
	// must surface between batches here exactly as in every other stage.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !s.filled {
		if err := s.fill(ctx); err != nil {
			return nil, err
		}
	}
	if s.pos >= len(s.buf) {
		// Drop the buffer as soon as the stream is exhausted — a consumer
		// that keeps the iterator around (or forgets Close) no longer
		// pins the sorted result.
		s.buf, s.free = nil, nil
		return nil, io.EOF
	}
	out := s.buf[s.pos:min(s.pos+s.rows, len(s.buf))]
	b := buildBatch(s.width, len(out), func(i, j int) string { return out[i].cells[j] })
	clear(out)
	s.pos += len(out)
	if n := min(len(out), s.charged); n > 0 {
		s.budget.Release(n)
		s.charged -= n
	}
	return b, nil
}

// fill drains the input into the buffer (bounded by the top-K heap
// when a limit is set), sorts, and releases the input. A per-call
// context cancellation is transient — the partial buffer is kept and a
// later Next with a live context resumes the drain — while any other
// input error is sticky and releases everything.
func (s *sortIterator) fill(ctx context.Context) error {
	start := time.Now()
	defer func() { s.fillNs.Add(int64(time.Since(start))) }()
	h := sortHeap{rows: s.buf, s: s}
	err := s.drain(ctx, &h)
	s.buf = h.rows
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		s.err = err
		s.buf, s.free = nil, nil
		s.budget.Release(s.charged)
		s.charged = 0
		s.closeIn()
		return err
	}
	s.closeIn()
	sort.Slice(s.buf, func(i, j int) bool { return s.compare(s.buf[i], s.buf[j]) < 0 })
	s.filled = true
	return nil
}

// drain offers every input row to the heap. Each key column's vector,
// float mirror and bitmap are read once per batch. Once the heap holds
// limit rows, a row whose first key alone sorts strictly after the
// root's is turned away on that key — a row the root compare would
// refuse anyway — before any candidate is built for it; every other
// row becomes a candidate whose cells stay in the batch until the heap
// admits it.
func (s *sortIterator) drain(ctx context.Context, h *sortHeap) error {
	cand := sortRow{keys: make([]sortKey, len(s.keys))}
	vecs := make([]keyVec, len(s.keys))
	// root is the heap root's first key once the heap is full, nil
	// before; desc is that key's direction.
	var root *sortKey
	desc := s.keys[0].Desc
	for {
		b, err := s.in.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for k, j := range s.keyCol {
			vecs[k] = keyVec{}
			if j >= 0 {
				vecs[k].v = b.vecs[j]
				vecs[k].f, vecs[k].ok = vecs[k].v.Floats()
			}
		}
		for i, n := 0, b.Len(); i < n; i++ {
			p := b.rowIndex(i)
			if root != nil && vecs[0].after(p, root, desc) {
				continue
			}
			for k := range vecs {
				cand.keys[k] = vecs[k].key(p)
			}
			cand.b, cand.i = b, i
			if err := s.admit(h, &cand); err != nil {
				return err
			}
			if s.limit > 0 && len(h.rows) >= s.limit {
				root = &h.rows[0].keys[0]
			}
		}
	}
}

// keyVec is one key column of the batch being drained: its vector and
// the vector's float mirror (v nil when the column is absent, whose
// cells read as "").
type keyVec struct {
	v  *Vector
	f  []float64
	ok *Bitmap
}

// key is physical row p's key cell. NaN parses but is kept
// non-numeric: it would break the order's transitivity.
func (kv *keyVec) key(p int) sortKey {
	if kv.v == nil {
		return sortKey{}
	}
	k := sortKey{text: kv.v.Cell(p)}
	if kv.ok.Get(p) && !math.IsNaN(kv.f[p]) {
		k.num, k.isNum = kv.f[p], true
	}
	return k
}

// after reports whether physical row p's key sorts strictly after root
// (reversed when desc). A parsed cell against a numeric root is one
// float compare: a numeric tie is not "after", as compareKeys would go
// on to the text, and neither is NaN, which compares false both ways
// and is left to admit to order as text. Anything else goes through
// compareKeys.
func (kv *keyVec) after(p int, root *sortKey, desc bool) bool {
	if root.isNum && kv.v != nil && kv.ok.Get(p) {
		if desc {
			return kv.f[p] < root.num
		}
		return kv.f[p] > root.num
	}
	c := compareKeys(kv.key(p), *root)
	if desc {
		c = -c
	}
	return c > 0
}

// admit offers one candidate to the heap under the top-K bound, copying
// it into owned storage only if it enters: into the evicted root's
// storage on a top-K replacement, into fresh (budget-charged) storage
// while the heap grows. An exceeded budget aborts the fill.
func (s *sortIterator) admit(h *sortHeap, cand *sortRow) error {
	if s.limit > 0 && len(h.rows) >= s.limit {
		// Bounded top-K: only admit rows that beat the current worst,
		// evicting it — the heap never exceeds limit rows.
		if s.compare(cand, h.rows[0]) < 0 {
			s.own(h.rows[0], cand)
			heap.Fix(h, 0)
		}
		return nil
	}
	if err := s.budget.Acquire(1); err != nil {
		return err
	}
	s.charged++
	if len(s.free) == 0 {
		chunk := 256
		if s.limit > 0 {
			chunk = min(chunk, s.limit)
		}
		s.free = make([]sortRow, chunk)
		keys, cells := make([]sortKey, chunk*len(s.keys)), make([]string, chunk*s.width)
		for i := range s.free {
			s.free[i].keys = keys[i*len(s.keys) : (i+1)*len(s.keys)]
			s.free[i].cells = cells[i*s.width : (i+1)*s.width]
		}
	}
	r := &s.free[0]
	s.free = s.free[1:]
	s.own(r, cand)
	heap.Push(h, r)
	if n := int64(len(h.rows)); n > s.maxHeld.Load() {
		s.maxHeld.Store(n)
	}
	return nil
}

// own copies a candidate's keys and cells into the row storage r.
func (s *sortIterator) own(r, cand *sortRow) {
	copy(r.keys, cand.keys)
	for j := range r.cells {
		r.cells[j] = cand.cell(j)
	}
}

// compare is the stage's total order: key by key (descending keys
// reversed), then the whole row, so no two distinct rows ever tie.
func (s *sortIterator) compare(a, b *sortRow) int {
	for k, key := range s.keys {
		if c := compareKeys(a.keys[k], b.keys[k]); c != 0 {
			if key.Desc {
				return -c
			}
			return c
		}
	}
	for j := 0; j < s.width; j++ {
		if c := strings.Compare(a.cell(j), b.cell(j)); c != 0 {
			return c
		}
	}
	return 0
}

// compareKeys orders two key cells: numeric cells compare numerically
// and sort before non-numeric ones; everything else is lexicographic.
// The type rank keeps the relation transitive (plain "numeric when both
// parse" is not: 2 < 10 < "1a" < 2 lexicographically), which the
// deterministic-output guarantee depends on.
func compareKeys(a, b sortKey) int {
	switch {
	case a.isNum && b.isNum:
		if a.num < b.num {
			return -1
		}
		if a.num > b.num {
			return 1
		}
		// Numerically equal but textually distinct ("1" vs "1.0"):
		// settle by text so the order stays total.
	case a.isNum:
		return -1
	case b.isNum:
		return 1
	}
	return strings.Compare(a.text, b.text)
}

func (s *sortIterator) closeIn() {
	if !s.inClosed {
		s.inClosed = true
		_ = s.in.Close()
	}
}

func (s *sortIterator) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.buf, s.free = nil, nil
	s.budget.Release(s.charged)
	s.charged = 0
	if s.inClosed {
		return nil
	}
	s.inClosed = true
	return s.in.Close()
}

// sortHeap is a max-heap under the stage's comparator: the worst row
// kept sits at the root, so top-K eviction is O(log k).
type sortHeap struct {
	rows []*sortRow
	s    *sortIterator
}

func (h *sortHeap) Len() int           { return len(h.rows) }
func (h *sortHeap) Less(i, j int) bool { return h.s.compare(h.rows[i], h.rows[j]) > 0 }
func (h *sortHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *sortHeap) Push(x any)         { h.rows = append(h.rows, x.(*sortRow)) }
func (h *sortHeap) Pop() any {
	n := len(h.rows) - 1
	r := h.rows[n]
	h.rows = h.rows[:n]
	return r
}
