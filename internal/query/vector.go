package query

import (
	"golake/internal/ndjson"
	"golake/internal/table"
)

// Bitmap is the validity mask of a vector's float mirror: bit off+i of
// bits describes cell i, so a vector can read a stored column's mask in
// place from any row.
type Bitmap struct {
	bits []uint64
	off  int
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	i += b.off
	return b.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// Vector is one column of a Batch: a run of cells, a lazily
// materialized float64 mirror, and the cells' JSON encoding when the
// store keeps one, or per-cell plain flags when a batch frame carried
// them.
//
// The string cells are authoritative: they are zero-copy references
// into the store snapshot and carry the exact wire representation, so
// serialization from a vector reproduces the stored text no matter how
// a numeric cell was spelled ("007", "1.0", "+3"). The Floats mirror
// serves numeric predicates and sort keys; cells that fail to parse are
// marked invalid in its bitmap and fall back to string semantics,
// exactly as Predicate.Matches does. A vector over a stored column reads
// the store's mirror of that column, parsed once per column; any other
// vector parses its own cells once. Likewise a row line copies a stored
// column's cells from the store's encoding of that column, encoded once
// per column, quotes a cell a batch frame flagged plain as it stands,
// and encodes any other cell as it writes it.
//
// Vectors flow through single-consumer pipelines; the lazy mirrors are
// not synchronized.
type Vector struct {
	// cells is the backing run; nil marks an all-null pad vector (a
	// projected column the source lacks).
	cells []string
	n     int

	// mirror, when set, is the stored column the cells were cut from,
	// starting at its row off.
	mirror *table.Mirror
	off    int

	parsed  bool
	floats  []float64
	floatOK Bitmap

	// wired is set once arena and ends hold the mirror's JSON form
	// (both nil when the vector has none).
	wired bool
	arena []byte
	ends  []uint32

	// plain, when not empty, holds one flag per cell from a batch
	// frame: a non-zero byte marks a cell whose JSON literal is the
	// cell between two quotes.
	plain string
}

// NewVector wraps a cell run as a vector. The slice is referenced, not
// copied.
func NewVector(cells []string) *Vector {
	return &Vector{cells: cells, n: len(cells)}
}

// NullVector returns an all-null pad vector of n cells — what
// projection and union substitute for a column a source lacks. Its
// cells read as the empty string, the pipeline's null encoding.
func NullVector(n int) *Vector {
	return &Vector{n: n}
}

// Len returns the vector's cell count.
func (v *Vector) Len() int { return v.n }

// Cell returns cell i in its wire representation ("" for nulls).
func (v *Vector) Cell(i int) string {
	if v.cells == nil {
		return ""
	}
	return v.cells[i]
}

// Floats returns the float64 mirror and its validity bitmap (a set bit
// marks a cell that parsed), materialized on first use; read floats[i]
// only where the bit is set (floats may be nil when no cell parsed).
// Parsing is table.ParseNumber, which matches Predicate.Matches exactly
// (plain strconv.ParseFloat, no trimming), so vectorized filters keep
// its selectivity.
func (v *Vector) Floats() ([]float64, *Bitmap) {
	if !v.parsed {
		v.parsed = true
		switch {
		case v.mirror != nil:
			nums := v.mirror.Numbers()
			if nums.Vals != nil {
				v.floats = nums.Vals[v.off : v.off+v.n : v.off+v.n]
			}
			v.floatOK = Bitmap{bits: nums.Valid, off: v.off}
		case v.cells == nil:
			v.floatOK = Bitmap{bits: make([]uint64, (v.n+63)/64)}
		default:
			nums := table.ParseNumbers(v.cells)
			v.floats, v.floatOK = nums.Vals, Bitmap{bits: nums.Valid}
		}
	}
	return v.floats, &v.floatOK
}

// wire loads the stored column's JSON encoding, once per vector.
func (v *Vector) wire() {
	if !v.wired {
		v.wired = true
		if v.mirror != nil {
			v.arena, v.ends = v.mirror.JSON()
		}
	}
}

// appendJSON appends cell i as a JSON string literal: a copy of its
// stored encoding when the store keeps one, the cell between quotes
// when a frame flagged it plain, ndjson.AppendString of the cell
// otherwise.
func (v *Vector) appendJSON(dst []byte, i int) []byte {
	v.wire()
	switch {
	case v.ends != nil:
		k := v.off + i
		return append(dst, v.arena[v.ends[k]:v.ends[k+1]]...)
	case v.plain != "" && v.plain[i] != 0:
		dst = append(dst, '"')
		dst = append(dst, v.cells[i]...)
		return append(dst, '"')
	}
	return ndjson.AppendString(dst, v.Cell(i))
}

// AppendTo appends the vector's cells to dst in selection order (every
// cell when sel is nil) — Collect's column-wise drain.
func (v *Vector) AppendTo(dst []string, sel []int) []string {
	if v.cells == nil {
		n := v.n
		if sel != nil {
			n = len(sel)
		}
		for i := 0; i < n; i++ {
			dst = append(dst, "")
		}
		return dst
	}
	if sel == nil {
		return append(dst, v.cells...)
	}
	for _, i := range sel {
		dst = append(dst, v.cells[i])
	}
	return dst
}
