package table

import (
	"math"
	"sync"
	"sync/atomic"

	"golake/internal/ndjson"
)

// Mirror keeps what reads derive from one stored column of cells that
// never change, each form built on its own first use and kept for the
// column's life. The float form (ParseNumbers of the cells) is built on
// the column's first numeric read: 8 bytes per cell plus one bit, only
// the bits when no cell parses. The wire form is built on its first
// NDJSON read: every cell as a JSON string literal
// (ndjson.AppendString), back to back in one arena, plus a 4-byte
// offset per cell.
type Mirror struct {
	cells []string

	numsOnce sync.Once
	nums     Numbers

	jsonOnce sync.Once
	arena    []byte
	ends     []uint32

	// size is the bytes the forms built so far hold.
	size atomic.Int64
}

// MirrorOf returns the mirror of cells, with no form built yet, to be
// stored where its readers find it: a Mirror is not copied once in use.
// The cells are referenced, not copied, and must not change afterwards.
func MirrorOf(cells []string) Mirror { return Mirror{cells: cells} }

// Numbers returns the float form, building it on first use. Safe for
// concurrent use.
func (m *Mirror) Numbers() *Numbers {
	m.numsOnce.Do(func() {
		m.nums = ParseNumbers(m.cells)
		m.size.Add(int64(8*len(m.nums.Vals) + 8*len(m.nums.Valid)))
	})
	return &m.nums
}

// JSON returns the wire form, building it on first use: cell k encodes
// as arena[ends[k]:ends[k+1]]. Both are nil for a column whose encoding
// exceeds 4 GiB, which 32-bit offsets cannot address; its readers
// encode its cells themselves. Safe for concurrent use.
func (m *Mirror) JSON() (arena []byte, ends []uint32) {
	m.jsonOnce.Do(func() {
		m.arena, m.ends = encodeJSON(m.cells, math.MaxUint32)
		m.size.Add(int64(len(m.arena) + 4*len(m.ends)))
	})
	return m.arena, m.ends
}

// Size returns the bytes the forms built so far hold: 0 before the
// first numeric or NDJSON read. Safe for concurrent use.
func (m *Mirror) Size() int64 { return m.size.Load() }

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
