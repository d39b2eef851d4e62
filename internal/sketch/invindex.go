package sketch

import (
	"slices"
	"sync"
)

// NoSlot is a slot no index holds: pass it as skipSelf to skip nothing.
const NoSlot = ^uint32(0)

// InvertedIndex maps distinct set values to the sets that contain them.
// JOSIE's exact top-k overlap search is built on such an index:
// candidate sets are discovered by walking the posting lists of the
// query's values (Sec. 6.2.1). Values are ids from the one Dict every
// indexed and query Set is built with; each indexed set sits in a dense
// slot the caller assigns, so a query counts overlaps in a slice, not a
// map, and answers by slot.
type InvertedIndex struct {
	mu       sync.RWMutex
	postings [][]uint32 // value id -> slots of the sets holding it
	sets     []Set      // slot -> indexed set; nil while free
	n        int
	// counts holds *[]uint32 overlap counters, one per slot, all zero
	// between queries, so concurrent queries count without allocating.
	counts sync.Pool
}

// NewInvertedIndex creates an empty index.
func NewInvertedIndex() *InvertedIndex { return &InvertedIndex{} }

// Add indexes a set in the given slot, replacing whatever the slot
// held. The index keeps values, which must not be modified afterwards.
func (ix *InvertedIndex) Add(slot uint32, values Set) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(slot)
	for int(slot) >= len(ix.sets) {
		ix.sets = append(ix.sets, nil)
	}
	// A non-nil Set marks the slot taken, even when it is empty.
	if values == nil {
		values = Set{}
	}
	ix.sets[slot] = values
	ix.n++
	for _, v := range values {
		for int(v) >= len(ix.postings) {
			ix.postings = append(ix.postings, nil)
		}
		ix.postings[v] = append(ix.postings[v], slot)
	}
}

// Remove empties a slot; an empty slot is a no-op.
func (ix *InvertedIndex) Remove(slot uint32) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(slot)
}

func (ix *InvertedIndex) removeLocked(slot uint32) {
	if int(slot) >= len(ix.sets) || ix.sets[slot] == nil {
		return
	}
	for _, v := range ix.sets[slot] {
		list := ix.postings[v]
		i := slices.Index(list, slot)
		list[i] = list[len(list)-1]
		ix.postings[v] = list[:len(list)-1]
	}
	ix.sets[slot] = nil
	ix.n--
}

// Len returns the number of indexed sets.
func (ix *InvertedIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.n
}

// OverlapResult is one ranked answer of a top-k overlap query.
type OverlapResult struct {
	Slot    uint32
	Overlap int
}

// TopKOverlap appends to dst the k indexed sets with the largest exact
// intersection with the query set (k <= 0: all of them), excluding the
// set in slot skipSelf, and returns the extended slice. Equal overlaps
// are ordered by tie, a total order over slots the caller supplies, so
// the cut at k is deterministic. This is the JOSIE primitive: exact
// top-k overlap set similarity without a user-supplied threshold.
func (ix *InvertedIndex) TopKOverlap(dst []OverlapResult, query Set, k int, skipSelf uint32, tie func(a, b uint32) int) []OverlapResult {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	// counts[slot] is the overlap so far; the results appended to dst
	// list the slots it is non-zero for.
	pc, _ := ix.counts.Get().(*[]uint32)
	if pc == nil || len(*pc) < len(ix.sets) {
		c := make([]uint32, len(ix.sets))
		pc = &c
	}
	counts := *pc
	start := len(dst)
	for _, v := range query {
		if int(v) >= len(ix.postings) {
			break // the Set is sorted: no later value is indexed either
		}
		for _, slot := range ix.postings[v] {
			if counts[slot] == 0 {
				dst = append(dst, OverlapResult{Slot: slot})
			}
			counts[slot]++
		}
	}
	out := dst[start:start]
	for _, r := range dst[start:] {
		if r.Slot != skipSelf {
			out = append(out, OverlapResult{Slot: r.Slot, Overlap: int(counts[r.Slot])})
		}
		counts[r.Slot] = 0
	}
	ix.counts.Put(pc)
	slices.SortFunc(out, func(a, b OverlapResult) int {
		if a.Overlap != b.Overlap {
			return b.Overlap - a.Overlap
		}
		return tie(a.Slot, b.Slot)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return dst[:start+len(out)]
}
