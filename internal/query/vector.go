package query

import (
	"strconv"

	"golake/internal/table"
)

// Bitmap is a fixed-length bit set — the validity mask of a vector's
// float mirror. The zero value is unusable; allocate with NewBitmap.
type Bitmap struct {
	bits []uint64
}

// NewBitmap returns an all-zero bitmap of n bits.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{bits: make([]uint64, (n+63)/64)}
}

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.bits[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool { return b.bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// Vector is one column of a Batch: a run of cells and a lazily
// materialized float64 mirror.
//
// The string cells are authoritative: they are zero-copy references
// into the store snapshot and carry the exact wire representation, so
// serialization from a vector reproduces the stored text no matter how
// a numeric cell was spelled ("007", "1.0", "+3"). The Floats mirror is
// parsed once per vector and serves numeric predicates and sort keys;
// cells that fail to parse are marked invalid in its bitmap and fall
// back to string semantics, exactly as Predicate.Matches does.
//
// Vectors flow through single-consumer pipelines; the lazy mirrors are
// not synchronized.
type Vector struct {
	// cells is the backing run; nil marks an all-null pad vector (a
	// projected column the source lacks).
	cells []string
	n     int

	floats  []float64
	floatOK *Bitmap
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
// only where the bit is set (floats is nil when no cell parsed). Parsing
// matches Predicate.Matches exactly (plain strconv.ParseFloat, no
// trimming), so vectorized filters keep its selectivity.
func (v *Vector) Floats() ([]float64, *Bitmap) {
	if v.floatOK == nil {
		v.floatOK = NewBitmap(v.n)
		for i, c := range v.cells {
			if c == "" {
				continue
			}
			// The shape test spares text cells an allocated parse error,
			// and short integers the general parser: an integer of up to
			// 15 digits is exact in a float64.
			var f float64
			switch shape := table.NumberShape(c); {
			case shape == 2 && len(c) <= 15:
				f = smallInt(c)
			case shape == 0:
				continue
			default:
				var err error
				if f, err = strconv.ParseFloat(c, 64); err != nil {
					continue
				}
			}
			if v.floats == nil {
				v.floats = make([]float64, v.n)
			}
			v.floats[i] = f
			v.floatOK.Set(i)
		}
	}
	return v.floats, v.floatOK
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

// smallInt is strconv.ParseFloat of a signed decimal integer of at most
// 15 digits, which needs no rounding.
func smallInt(s string) float64 {
	neg := s[0] == '-'
	if s[0] == '-' || s[0] == '+' {
		s = s[1:]
	}
	var n int64
	for i := 0; i < len(s); i++ {
		n = n*10 + int64(s[i]-'0')
	}
	if neg {
		return -float64(n)
	}
	return float64(n)
}
