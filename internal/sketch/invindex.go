package sketch

import (
	"slices"
	"strings"
	"sync"
)

// InvertedIndex maps distinct set values to the sets that contain them.
// JOSIE's exact top-k overlap search is built on such an index:
// candidate sets are discovered by walking the posting lists of the
// query's values (Sec. 6.2.1). Values are ids from the one Dict every
// indexed and query Set is built with; each indexed set holds a dense
// slot, so a query counts overlaps in a slice, not a map.
type InvertedIndex struct {
	mu       sync.RWMutex
	postings [][]int32        // value id -> slots of the sets holding it
	slots    map[string]int32 // set ID -> slot
	ids      []string         // slot -> set ID
	sets     []Set            // slot -> indexed set; nil while free
	free     []int32
	values   int // non-empty posting lists
}

// NewInvertedIndex creates an empty index.
func NewInvertedIndex() *InvertedIndex {
	return &InvertedIndex{slots: map[string]int32{}}
}

// Add indexes a set under the given ID. Re-adding an ID replaces it.
// The index keeps values, which must not be modified afterwards.
func (ix *InvertedIndex) Add(id string, values Set) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(id)
	var slot int32
	if n := len(ix.free); n > 0 {
		slot, ix.free = ix.free[n-1], ix.free[:n-1]
		ix.ids[slot], ix.sets[slot] = id, values
	} else {
		slot = int32(len(ix.ids))
		ix.ids, ix.sets = append(ix.ids, id), append(ix.sets, values)
	}
	ix.slots[id] = slot
	for _, v := range values {
		for int(v) >= len(ix.postings) {
			ix.postings = append(ix.postings, nil)
		}
		if len(ix.postings[v]) == 0 {
			ix.values++
		}
		ix.postings[v] = append(ix.postings[v], slot)
	}
}

// Remove deletes a set from the index.
func (ix *InvertedIndex) Remove(id string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(id)
}

func (ix *InvertedIndex) removeLocked(id string) {
	slot, ok := ix.slots[id]
	if !ok {
		return
	}
	for _, v := range ix.sets[slot] {
		list := ix.postings[v]
		i := slices.Index(list, slot)
		list[i] = list[len(list)-1]
		ix.postings[v] = list[:len(list)-1]
		if len(list) == 1 {
			ix.values--
		}
	}
	delete(ix.slots, id)
	ix.ids[slot], ix.sets[slot] = "", nil
	ix.free = append(ix.free, slot)
}

// Len returns the number of indexed sets.
func (ix *InvertedIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.slots)
}

// SetSize returns the cardinality of an indexed set (0 if unknown).
func (ix *InvertedIndex) SetSize(id string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if slot, ok := ix.slots[id]; ok {
		return len(ix.sets[slot])
	}
	return 0
}

// OverlapResult is one ranked answer of a top-k overlap query.
type OverlapResult struct {
	ID      string
	Overlap int
}

// TopKOverlap returns the k indexed sets with the largest exact
// intersection with the query set, excluding skipSelf. Ties break by ID
// for determinism. This is the JOSIE primitive: exact top-k overlap set
// similarity without a user-supplied threshold.
func (ix *InvertedIndex) TopKOverlap(query Set, k int, skipSelf string) []OverlapResult {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	// counts[slot] is the overlap so far; hit lists the slots it is
	// non-zero for. One allocation holds both.
	n := len(ix.ids)
	buf := make([]int32, 2*n)
	counts, hit := buf[:n], buf[n:n]
	for _, v := range query {
		if int(v) >= len(ix.postings) {
			break // the Set is sorted: no later value is indexed either
		}
		for _, slot := range ix.postings[v] {
			if counts[slot] == 0 {
				hit = append(hit, slot)
			}
			counts[slot]++
		}
	}
	out := make([]OverlapResult, 0, len(hit))
	for _, slot := range hit {
		if id := ix.ids[slot]; id != skipSelf {
			out = append(out, OverlapResult{ID: id, Overlap: int(counts[slot])})
		}
	}
	slices.SortFunc(out, func(a, b OverlapResult) int {
		if a.Overlap != b.Overlap {
			return b.Overlap - a.Overlap
		}
		return strings.Compare(a.ID, b.ID)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Values returns the number of distinct indexed values.
func (ix *InvertedIndex) Values() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.values
}
