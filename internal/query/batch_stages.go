package query

import (
	"context"
	"io"
	"slices"
	"strconv"
)

// batchMapping returns the column mapping from one header onto another
// — each target column's index in from, -1 when absent — or nil when
// the headers already match, the identity every remap treats as
// pass-through.
func batchMapping(from, to []string) []int {
	if slices.Equal(from, to) {
		return nil
	}
	idx := make(map[string]int, len(from))
	for i, c := range from {
		idx[c] = i
	}
	src := make([]int, len(to))
	for i, c := range to {
		if j, ok := idx[c]; ok {
			src[i] = j
		} else {
			src[i] = -1
		}
	}
	return src
}

// remapBatch projects a batch onto a target header through a
// precomputed mapping: whole vectors are rearranged (missing columns
// become all-null pads), no cell is touched, and the selection carries
// over unchanged. nil src is the identity and returns the batch as-is.
func remapBatch(b *Batch, src []int) *Batch {
	if src == nil {
		return b
	}
	vecs := make([]*Vector, len(src))
	for i, j := range src {
		if j >= 0 {
			vecs[i] = b.vecs[j]
		} else {
			vecs[i] = NullVector(b.n)
		}
	}
	return &Batch{vecs: vecs, n: b.n, sel: b.sel}
}

// withSel derives a batch sharing this batch's vectors under a new
// selection.
func (b *Batch) withSel(sel []int) *Batch {
	return &Batch{vecs: b.vecs, n: b.n, sel: sel}
}

// head returns the batch truncated to its first k logical rows.
func (b *Batch) head(k int) *Batch {
	if k >= b.Len() {
		return b
	}
	if b.sel != nil {
		return b.withSel(b.sel[:k])
	}
	sel := make([]int, k)
	for i := range sel {
		sel[i] = i
	}
	return b.withSel(sel)
}

// boundBatchPredicate is one predicate compiled against a batch
// stream's header: the column index resolved once, the comparison
// value parsed once.
type boundBatchPredicate struct {
	p   Predicate
	col int // input column index, -1 when the column is missing
	// val/valOK cache strconv.ParseFloat(p.Value), parsed once per
	// stream instead of once per cell.
	val   float64
	valOK bool
}

// filterBatchIterator evaluates conjunctive predicates vectorized: per
// batch, each predicate narrows a selection over whole column vectors —
// numeric comparisons run over the float64 mirror (parsed once per
// vector instead of once per row), and nothing is copied to drop a row.
type filterBatchIterator struct {
	in    BatchIterator
	preds []boundBatchPredicate
}

// FilterBatches wraps a batch stream with vectorized predicate
// evaluation — the filter every pipeline leaf runs. A predicate naming
// a column the input lacks matches nothing, and every cell follows
// Predicate.Matches semantics exactly: numeric comparison when both the
// cell and the value parse as float64, string comparison otherwise.
func FilterBatches(in BatchIterator, preds []Predicate) BatchIterator {
	if len(preds) == 0 {
		return in
	}
	idx := make(map[string]int, len(in.Columns()))
	for i, c := range in.Columns() {
		idx[c] = i
	}
	bound := make([]boundBatchPredicate, len(preds))
	for i, p := range preds {
		bp := boundBatchPredicate{p: p, col: -1}
		if j, ok := idx[p.Column]; ok {
			bp.col = j
		}
		if p.Numeric {
			if f, err := strconv.ParseFloat(p.Value, 64); err == nil {
				bp.val, bp.valOK = f, true
			}
		}
		bound[i] = bp
	}
	return &filterBatchIterator{in: in, preds: bound}
}

func (f *filterBatchIterator) Columns() []string { return f.in.Columns() }

func (f *filterBatchIterator) Next(ctx context.Context) (*Batch, error) {
	for {
		b, err := f.in.Next(ctx)
		if err != nil {
			return nil, err
		}
		sel := f.apply(b)
		if len(sel) == 0 {
			// Never emit an empty batch; keep pulling.
			continue
		}
		if len(sel) == b.n && b.sel == nil {
			return b, nil
		}
		return b.withSel(sel), nil
	}
}

// apply narrows the batch's selection predicate by predicate and
// returns the surviving physical row indexes (possibly empty).
func (f *filterBatchIterator) apply(b *Batch) []int {
	sel := b.sel
	for k := range f.preds {
		bp := &f.preds[k]
		if bp.col < 0 {
			// A missing column matches nothing.
			return nil
		}
		v := b.vecs[bp.col]
		var out []int
		keep := func(i int) {
			if out == nil {
				n := b.n
				if sel != nil {
					n = len(sel)
				}
				out = make([]int, 0, n)
			}
			out = append(out, i)
		}
		if bp.p.Numeric && bp.valOK {
			floats, ok := v.Floats()
			match := func(i int) bool {
				if ok.Get(i) {
					return floatMatch(bp.p.Op, floats[i], bp.val)
				}
				return stringMatch(bp.p.Op, v.Cell(i), bp.p.Value)
			}
			if sel == nil {
				for i := 0; i < v.Len(); i++ {
					if match(i) {
						keep(i)
					}
				}
			} else {
				for _, i := range sel {
					if match(i) {
						keep(i)
					}
				}
			}
		} else {
			if sel == nil {
				for i := 0; i < v.Len(); i++ {
					if stringMatch(bp.p.Op, v.Cell(i), bp.p.Value) {
						keep(i)
					}
				}
			} else {
				for _, i := range sel {
					if stringMatch(bp.p.Op, v.Cell(i), bp.p.Value) {
						keep(i)
					}
				}
			}
		}
		sel = out
		if len(sel) == 0 {
			return nil
		}
	}
	return sel
}

func (f *filterBatchIterator) Close() error { return f.in.Close() }

// floatMatch is the numeric half of Predicate.Matches, hoisted so the
// vectorized filter compares parsed mirrors instead of re-parsing per
// row.
func floatMatch(op CmpOp, a, b float64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpGt:
		return a > b
	case OpGte:
		return a >= b
	case OpLt:
		return a < b
	case OpLte:
		return a <= b
	}
	return false
}

// stringMatch is the string half of Predicate.Matches.
func stringMatch(op CmpOp, cell, val string) bool {
	switch op {
	case OpEq:
		return cell == val
	case OpNe:
		return cell != val
	case OpGt:
		return cell > val
	case OpGte:
		return cell >= val
	case OpLt:
		return cell < val
	case OpLte:
		return cell <= val
	}
	return false
}

// limitBatchIterator caps the stream at n logical rows, slicing the
// final batch's selection rather than copying it.
type limitBatchIterator struct {
	in   BatchIterator
	left int
	done bool
}

// LimitBatches caps a batch stream at n rows; n <= 0 means unlimited.
// The final batch is truncated by selection, and once the cap is
// reached the input is closed eagerly, releasing source scans before
// the consumer calls Close.
func LimitBatches(in BatchIterator, n int) BatchIterator {
	if n <= 0 {
		return in
	}
	return &limitBatchIterator{in: in, left: n}
}

func (l *limitBatchIterator) Columns() []string { return l.in.Columns() }

func (l *limitBatchIterator) Next(ctx context.Context) (*Batch, error) {
	if l.done {
		return nil, io.EOF
	}
	b, err := l.in.Next(ctx)
	if err != nil {
		return nil, err
	}
	if b.Len() >= l.left {
		b = b.head(l.left)
		l.left = 0
		l.done = true
		_ = l.in.Close()
		return b, nil
	}
	l.left -= b.Len()
	return b, nil
}

func (l *limitBatchIterator) Close() error {
	l.done = true
	return l.in.Close()
}

// unionBatchColumns computes the union header over batch sources: want
// when projecting explicit columns, otherwise the union of the source
// headers in first-seen order.
func unionBatchColumns(sources []BatchIterator, want []string) []string {
	cols := want
	if len(cols) == 0 {
		seen := map[string]bool{}
		for _, s := range sources {
			for _, c := range s.Columns() {
				if !seen[c] {
					seen[c] = true
					cols = append(cols, c)
				}
			}
		}
	}
	return cols
}

// unionBatchIterator concatenates batch sources, remapping each
// source's header onto the union header whole-vector.
type unionBatchIterator struct {
	cols    []string
	sources []BatchIterator
	// src is the current source's column mapping (nil = identity),
	// rebuilt on advance.
	src    []int
	cur    int
	closed bool
	// err is the sticky mid-stream failure: once a source errors, every
	// remaining source is closed eagerly and later Next calls replay the
	// error instead of pulling from a half-torn-down stream.
	err error
}

// UnionBatches merges batch sources by concatenation over a shared
// header, remapping (and null-padding) each source whole-vector — the
// fanin=1 union, whose row order is the deterministic concatenation of
// the sources. Nothing is buffered. The context is re-checked between
// batches: one batch can carry ~a thousand rows, so a source that
// serves batch after batch without ever blocking would otherwise let
// cancellation ride far past the caller's deadline.
func UnionBatches(sources []BatchIterator, want []string) BatchIterator {
	u := &unionBatchIterator{cols: unionBatchColumns(sources, want), sources: sources}
	if len(sources) > 0 {
		u.src = batchMapping(sources[0].Columns(), u.cols)
	}
	return u
}

func (u *unionBatchIterator) Columns() []string { return u.cols }

func (u *unionBatchIterator) Next(ctx context.Context) (*Batch, error) {
	if u.err != nil {
		return nil, u.err
	}
	if u.closed {
		return nil, io.EOF
	}
	for u.cur < len(u.sources) {
		// Between-batch cancellation check: transient, like a per-call
		// cancellation surfacing from a source — the stream stays
		// resumable with a live context.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := u.sources[u.cur].Next(ctx)
		if err == io.EOF {
			_ = u.sources[u.cur].Close()
			u.cur++
			if u.cur < len(u.sources) {
				u.src = batchMapping(u.sources[u.cur].Columns(), u.cols)
			}
			continue
		}
		if err != nil {
			// Per-call context cancellation is transient, not a source
			// failure: surface it without tearing the stream down, so a
			// later Next with a live context resumes. Gated on the
			// caller's context — not the error value — so a source's own
			// internal timeout still counts as a terminal failure,
			// exactly as the parallel pullers classify it.
			if ctx.Err() != nil {
				return nil, err
			}
			// Mid-stream failure: sticky, and every remaining source —
			// including not-yet-reached ones — is released right away
			// instead of relying on the caller's Close.
			u.err = err
			_ = u.Close()
			return nil, err
		}
		return remapBatch(b, u.src), nil
	}
	return nil, io.EOF
}

func (u *unionBatchIterator) Close() error {
	if u.closed {
		return nil
	}
	u.closed = true
	var first error
	for ; u.cur < len(u.sources); u.cur++ {
		if err := u.sources[u.cur].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
