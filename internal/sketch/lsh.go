package sketch

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// LSHIndex is a banding locality-sensitive hash index over MinHash
// signatures. Two items whose signatures agree on all rows of at least
// one band become candidate pairs. D3L draws its candidate columns from
// exactly this test, turning the O(n^2) all-pairs comparison into a
// linear scan (Sec. 6.2.1 of the survey).
//
// Items are dense uint32 slots the caller assigns, and a signature enters
// the index as its band hashes (Bands), which the caller computes once
// and keeps: probing the index hashes nothing.
type LSHIndex struct {
	bands int
	rows  int

	mu      sync.RWMutex
	buckets []map[uint64][]uint32 // per band: bucket hash -> slots
	items   [][]uint64            // slot -> its band hashes; nil while free
	n       int
}

// NewLSHIndex creates an index for signatures of length bands*rows.
// The candidate threshold is approximately (1/bands)^(1/rows).
func NewLSHIndex(bands, rows int) *LSHIndex {
	if bands <= 0 || rows <= 0 {
		panic(fmt.Sprintf("sketch: invalid LSH shape %dx%d", bands, rows))
	}
	idx := &LSHIndex{
		bands:   bands,
		rows:    rows,
		buckets: make([]map[uint64][]uint32, bands),
	}
	for i := range idx.buckets {
		idx.buckets[i] = make(map[uint64][]uint32)
	}
	return idx
}

// SignatureLen returns the required MinHash length (bands*rows).
func (x *LSHIndex) SignatureLen() int { return x.bands * x.rows }

// Bands returns the band hashes of a signature, one per band: what Add
// indexes and AppendSlots probes. It reads only the index's shape, so
// it may run beside any other call. The signature length must equal
// SignatureLen.
func (x *LSHIndex) Bands(sig *MinHash) []uint64 {
	if sig.K() != x.SignatureLen() {
		panic(fmt.Sprintf("sketch: signature length %d, want %d", sig.K(), x.SignatureLen()))
	}
	out := make([]uint64, x.bands)
	for b := range out {
		out[b] = bandHash(sig.Signature()[b*x.rows : (b+1)*x.rows])
	}
	return out
}

// Add inserts the item in slot with its band hashes, replacing whatever
// the slot held. The index keeps bands, which must not be modified
// afterwards.
func (x *LSHIndex) Add(slot uint32, bands []uint64) error {
	if len(bands) != x.bands {
		return fmt.Errorf("sketch: %d band hashes, want %d", len(bands), x.bands)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.removeLocked(slot)
	for int(slot) >= len(x.items) {
		x.items = append(x.items, nil)
	}
	x.items[slot] = bands
	x.n++
	for b, h := range bands {
		x.buckets[b][h] = append(x.buckets[b][h], slot)
	}
	return nil
}

// Remove empties a slot; an empty slot is a no-op. A slot freed by
// Remove may be added again.
func (x *LSHIndex) Remove(slot uint32) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.removeLocked(slot)
}

func (x *LSHIndex) removeLocked(slot uint32) {
	if int(slot) >= len(x.items) || x.items[slot] == nil {
		return
	}
	for b, h := range x.items[slot] {
		list := x.buckets[b][h]
		for i, s := range list {
			if s == slot {
				list = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(list) == 0 {
			delete(x.buckets[b], h)
		} else {
			x.buckets[b][h] = list
		}
	}
	x.items[slot] = nil
	x.n--
}

// Len returns the number of indexed items.
func (x *LSHIndex) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.n
}

// AppendSlots appends to dst the slot of every item sharing at least one
// band bucket with the given band hashes and returns the extended slice.
// A slot is appended once per band it shares, so dst may repeat it; it
// is neither estimated, filtered nor sorted. bands comes from Bands.
func (x *LSHIndex) AppendSlots(dst []uint32, bands []uint64) []uint32 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	for b, h := range bands {
		dst = append(dst, x.buckets[b][h]...)
	}
	return dst
}

func bandHash(rows []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range rows {
		buf[0] = byte(r)
		buf[1] = byte(r >> 8)
		buf[2] = byte(r >> 16)
		buf[3] = byte(r >> 24)
		buf[4] = byte(r >> 32)
		buf[5] = byte(r >> 40)
		buf[6] = byte(r >> 48)
		buf[7] = byte(r >> 56)
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}
