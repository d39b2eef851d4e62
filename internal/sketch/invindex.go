package sketch

import (
	"sort"
	"sync"
)

// InvertedIndex maps distinct set values to the IDs of the sets that
// contain them. JOSIE's exact top-k overlap search is built on such an
// index: candidate sets are discovered by walking the posting lists of
// the query's values (Sec. 6.2.1).
type InvertedIndex struct {
	mu       sync.RWMutex
	postings map[string][]string // value -> sorted set IDs
	sizes    map[string]int      // set ID -> cardinality
}

// NewInvertedIndex creates an empty index.
func NewInvertedIndex() *InvertedIndex {
	return &InvertedIndex{postings: map[string][]string{}, sizes: map[string]int{}}
}

// Add indexes a set under the given ID. Re-adding an ID replaces it.
func (ix *InvertedIndex) Add(id string, values Set) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.sizes[id]; ok {
		ix.removeLocked(id)
	}
	ix.sizes[id] = len(values)
	for _, v := range values {
		list := ix.postings[v]
		pos := sort.SearchStrings(list, id)
		list = append(list, "")
		copy(list[pos+1:], list[pos:])
		list[pos] = id
		ix.postings[v] = list
	}
}

// Remove deletes a set from the index.
func (ix *InvertedIndex) Remove(id string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.removeLocked(id)
}

func (ix *InvertedIndex) removeLocked(id string) {
	delete(ix.sizes, id)
	for v, list := range ix.postings {
		pos := sort.SearchStrings(list, id)
		if pos < len(list) && list[pos] == id {
			ix.postings[v] = append(list[:pos], list[pos+1:]...)
			if len(ix.postings[v]) == 0 {
				delete(ix.postings, v)
			}
		}
	}
}

// Len returns the number of indexed sets.
func (ix *InvertedIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.sizes)
}

// SetSize returns the cardinality of an indexed set (0 if unknown).
func (ix *InvertedIndex) SetSize(id string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.sizes[id]
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
	counts := map[string]int{}
	for _, v := range query {
		for _, id := range ix.postings[v] {
			if id != skipSelf {
				counts[id]++
			}
		}
	}
	out := make([]OverlapResult, 0, len(counts))
	for id, c := range counts {
		out = append(out, OverlapResult{ID: id, Overlap: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Overlap != out[j].Overlap {
			return out[i].Overlap > out[j].Overlap
		}
		return out[i].ID < out[j].ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// PostingLen returns the posting-list length for a value; JOSIE's cost
// model uses it to decide between probing postings and reading sets.
func (ix *InvertedIndex) PostingLen(value string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings[value])
}

// Values returns the number of distinct indexed values.
func (ix *InvertedIndex) Values() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}
