package sketch

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
)

// LSHIndex is a banding locality-sensitive hash index over MinHash
// signatures. Two items whose signatures agree on all rows of at least
// one band become candidate pairs. Aurum builds its enterprise knowledge
// graph edges from exactly this candidacy test, turning the O(n^2)
// all-pairs comparison into a linear scan (Sec. 6.2.1 of the survey).
type LSHIndex struct {
	bands int
	rows  int

	mu      sync.RWMutex
	buckets []map[uint64][]string // per band: bucket hash -> item keys
	sigs    map[string]*MinHash
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
		buckets: make([]map[uint64][]string, bands),
		sigs:    make(map[string]*MinHash),
	}
	for i := range idx.buckets {
		idx.buckets[i] = make(map[uint64][]string)
	}
	return idx
}

// SignatureLen returns the required MinHash length (bands*rows).
func (x *LSHIndex) SignatureLen() int { return x.bands * x.rows }

// Add inserts an item with its signature. The signature length must
// equal SignatureLen.
func (x *LSHIndex) Add(key string, sig *MinHash) error {
	if sig.K() != x.SignatureLen() {
		return fmt.Errorf("sketch: signature length %d, want %d", sig.K(), x.SignatureLen())
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.sigs[key]; ok {
		x.removeLocked(key)
	}
	x.sigs[key] = sig
	for b := 0; b < x.bands; b++ {
		h := bandHash(sig.Signature()[b*x.rows : (b+1)*x.rows])
		x.buckets[b][h] = append(x.buckets[b][h], key)
	}
	return nil
}

// Remove deletes an item from the index; unknown keys are a no-op.
// Aurum re-signatures a column only when its values drift past a
// threshold, which maps to Remove+Add here.
func (x *LSHIndex) Remove(key string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.removeLocked(key)
}

func (x *LSHIndex) removeLocked(key string) {
	sig, ok := x.sigs[key]
	if !ok {
		return
	}
	delete(x.sigs, key)
	for b := 0; b < x.bands; b++ {
		h := bandHash(sig.Signature()[b*x.rows : (b+1)*x.rows])
		list := x.buckets[b][h]
		for i, k := range list {
			if k == key {
				x.buckets[b][h] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(x.buckets[b][h]) == 0 {
			delete(x.buckets[b], h)
		}
	}
}

// Len returns the number of indexed items.
func (x *LSHIndex) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.sigs)
}

// Candidate is a query result: an item key plus its estimated Jaccard
// similarity to the query signature.
type Candidate struct {
	Key     string
	Jaccard float64
}

// Query returns all items sharing at least one band bucket with the
// query signature, with estimated Jaccard >= minJaccard, sorted by
// descending similarity. The query key itself (if indexed) is excluded
// when skipSelf is non-empty and equal to the candidate.
func (x *LSHIndex) Query(sig *MinHash, minJaccard float64, skipSelf string) []Candidate {
	x.mu.RLock()
	defer x.mu.RUnlock()
	seen := map[string]struct{}{}
	var out []Candidate
	for b := 0; b < x.bands; b++ {
		h := bandHash(sig.Signature()[b*x.rows : (b+1)*x.rows])
		for _, key := range x.buckets[b][h] {
			if key == skipSelf {
				continue
			}
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			est := sig.Jaccard(x.sigs[key])
			if est >= minJaccard {
				out = append(out, Candidate{Key: key, Jaccard: est})
			}
		}
	}
	slices.SortFunc(out, func(a, b Candidate) int {
		if a.Jaccard != b.Jaccard {
			return cmp.Compare(b.Jaccard, a.Jaccard)
		}
		return strings.Compare(a.Key, b.Key)
	})
	return out
}

// Keys returns all indexed keys in sorted order.
func (x *LSHIndex) Keys() []string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make([]string, 0, len(x.sigs))
	for k := range x.sigs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
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
