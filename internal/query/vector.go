package query

import "strconv"

// Bitmap is a fixed-length bit set — the null and validity masks of the
// columnar batch layer. The zero value is unusable; allocate with
// NewBitmap.
type Bitmap struct {
	bits []uint64
	n    int
}

// NewBitmap returns an all-zero bitmap of n bits.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{bits: make([]uint64, (n+63)/64), n: n}
}

// Len returns the bitmap's length in bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.bits[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool { return b.bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetAll sets every bit.
func (b *Bitmap) SetAll() {
	for i := range b.bits {
		b.bits[i] = ^uint64(0)
	}
	// Clear the tail past n so Count stays exact.
	if rem := uint(b.n) & 63; rem != 0 && len(b.bits) > 0 {
		b.bits[len(b.bits)-1] &= (1 << rem) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.bits {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Vector is one column of a Batch: a run of cells, a null bitmap, and
// lazily materialized typed mirrors for numeric predicates.
//
// The string cells are authoritative: they are zero-copy references
// into the store snapshot and carry the exact wire representation, so
// serialization from a vector is byte-identical to the row pipeline no
// matter how a numeric cell was spelled ("007", "1.0", "+3"). The
// typed mirrors — Ints and Floats — are parsed once per vector and
// power vectorized predicate evaluation and future typed operators;
// cells that fail to parse are marked invalid in the returned bitmap
// and fall back to string semantics, exactly as the row pipeline's
// per-row Predicate.Matches does.
//
// Vectors flow through single-consumer pipelines; the lazy mirrors are
// not synchronized.
type Vector struct {
	// cells is the backing run; nil marks an all-null pad vector (a
	// projected column the source lacks).
	cells []string
	n     int

	ints    []int64
	intOK   *Bitmap
	floats  []float64
	floatOK *Bitmap
	nulls   *Bitmap
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

// Cells returns the backing run, or nil for a pad vector. Callers must
// not mutate it: it may alias a live store snapshot.
func (v *Vector) Cells() []string { return v.cells }

// Nulls returns the null bitmap (a set bit marks a null cell),
// computed on first use. The pipeline encodes null as the empty cell;
// a pad vector is all-null.
func (v *Vector) Nulls() *Bitmap {
	if v.nulls == nil {
		v.nulls = NewBitmap(v.n)
		if v.cells == nil {
			v.nulls.SetAll()
		} else {
			for i, c := range v.cells {
				if c == "" {
					v.nulls.Set(i)
				}
			}
		}
	}
	return v.nulls
}

// Ints returns the int64 mirror and its validity bitmap (a set bit
// marks a cell that parsed), materialized on first use.
func (v *Vector) Ints() ([]int64, *Bitmap) {
	if v.intOK == nil {
		v.ints = make([]int64, v.n)
		v.intOK = NewBitmap(v.n)
		for i, c := range v.cells {
			if x, err := strconv.ParseInt(c, 10, 64); err == nil {
				v.ints[i] = x
				v.intOK.Set(i)
			}
		}
	}
	return v.ints, v.intOK
}

// Floats returns the float64 mirror and its validity bitmap,
// materialized on first use. Parsing matches the row pipeline's
// predicate semantics exactly (plain strconv.ParseFloat, no trimming),
// so vectorized filters keep byte-identical selectivity.
func (v *Vector) Floats() ([]float64, *Bitmap) {
	if v.floatOK == nil {
		v.floats = make([]float64, v.n)
		v.floatOK = NewBitmap(v.n)
		for i, c := range v.cells {
			if f, err := strconv.ParseFloat(c, 64); err == nil {
				v.floats[i] = f
				v.floatOK.Set(i)
			}
		}
	}
	return v.floats, v.floatOK
}

// AppendTo appends the vector's cells to dst in selection order (every
// cell when sel is nil) — the column-wise drain CollectBatches and the
// serialization fast paths use instead of materializing rows.
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
