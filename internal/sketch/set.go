package sketch

import "slices"

// Set is a set of values held as a sorted, duplicate-free slice of ids
// from one Dict, the form every exact set similarity here takes: two
// Sets intersect in one merge walk over integers, as JOSIE's token ids
// do. Sets are only comparable when their ids come from the same Dict.
// Build one with Dict.Set or Lookup.Set; the similarity functions rely
// on the order, and nothing may modify a Set once built.
type Set []uint32

// sorted turns a list of ids into a Set in place.
func (s Set) sorted() Set {
	slices.Sort(s)
	return slices.Compact(s)
}

// Dict interns values as dense ids: the first value gets 0, the next
// 1, and so on, so an id says nothing about its value's order. Every
// owner of Sets keeps one and builds all its Sets from it. A Dict is
// not safe for concurrent writes; read paths that share it use a
// Lookup, which never writes.
type Dict struct {
	ids map[string]uint32
}

// NewDict creates an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: map[string]uint32{}}
}

// Len returns the number of interned values; every interned id is
// below it.
func (d *Dict) Len() int { return len(d.ids) }

// Set interns the values and returns their Set. values is not
// modified.
func (d *Dict) Set(values []string) Set {
	s := make(Set, len(values))
	for i, v := range values {
		id, ok := d.ids[v]
		if !ok {
			id = uint32(len(d.ids))
			d.ids[v] = id
		}
		s[i] = id
	}
	return s.sorted()
}

// Lookup returns a read-only view of the dictionary for one call.
func (d *Dict) Lookup() *Lookup { return &Lookup{d: d} }

// Lookup maps values to ids without writing its Dict: an interned value
// gets its id, and a value the Dict has never seen gets an id above
// every interned one, the same id each time within this Lookup. Such an
// id matches nothing in a Set built before, but still counts towards
// its own Set's size, so every similarity against the Dict's Sets stays
// exact. Lookups may run concurrently with each other, not with a
// write to their Dict.
type Lookup struct {
	d      *Dict
	unseen map[string]uint32
}

// Set returns the Set of the values. values is not modified.
func (l *Lookup) Set(values []string) Set {
	s := make(Set, len(values))
	for i, v := range values {
		id, ok := l.d.ids[v]
		if !ok {
			if id, ok = l.unseen[v]; !ok {
				if l.unseen == nil {
					l.unseen = map[string]uint32{}
				}
				id = uint32(l.d.Len() + len(l.unseen))
				l.unseen[v] = id
			}
		}
		s[i] = id
	}
	return s.sorted()
}

// ExactJaccard computes |A∩B| / |A∪B|; 0 when both are empty.
func ExactJaccard(a, b Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := Overlap(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// Overlap computes |A∩B|, the raw overlap similarity used by JOSIE.
func Overlap(a, b Set) int {
	// A Dict hands out ids in first-seen order, so the values of
	// unrelated columns often hold disjoint id ranges: 39 % of the
	// overlaps the discovery golden corpus computes end here.
	if len(a) == 0 || len(b) == 0 || a[len(a)-1] < b[0] || b[len(b)-1] < a[0] {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch x, y := a[i], b[j]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return inter
}

// Containment computes |A∩B| / |A|: how much of A is covered by B.
// Used for PK-FK candidate detection and unionability.
func Containment(a, b Set) float64 {
	if len(a) == 0 {
		return 0
	}
	return float64(Overlap(a, b)) / float64(len(a))
}

// Probe answers overlaps with one Set, its query, through a bitmap over
// the query's id range: an id of the other Set costs one bit test where
// a merge walk costs a compare and a branch per step of either Set, and
// the ids outside the range cost one binary search. DS-kNN scores every
// categorised dataset against one incoming dataset this way. A zero
// Probe's query is empty; Reset points it at another, reusing its
// bitmap. Its answers are Overlap's and ExactJaccard's, bit for bit.
type Probe struct {
	query Set
	lo    uint32
	words []uint64
}

// Reset makes s the query, which must not change while p uses it.
func (p *Probe) Reset(s Set) {
	p.query = s
	if len(s) == 0 {
		return
	}
	p.lo = s[0]
	n := int((s[len(s)-1]-p.lo)>>6) + 1
	if cap(p.words) < n {
		p.words = make([]uint64, n)
	} else {
		p.words = p.words[:n]
		clear(p.words)
	}
	for _, id := range s {
		d := id - p.lo
		p.words[d>>6] |= 1 << (d & 63)
	}
}

// Overlap is Overlap(query, b).
func (p *Probe) Overlap(b Set) int {
	q := p.query
	if len(q) == 0 || len(b) == 0 || b[len(b)-1] < p.lo || q[len(q)-1] < b[0] {
		return 0
	}
	i, _ := slices.BinarySearch(b, p.lo)
	inter := 0
	for _, id := range b[i:] {
		d := id - p.lo
		if int(d>>6) >= len(p.words) {
			break
		}
		inter += int(p.words[d>>6] >> (d & 63) & 1)
	}
	return inter
}

// Jaccard is ExactJaccard(query, b).
func (p *Probe) Jaccard(b Set) float64 {
	if len(p.query) == 0 && len(b) == 0 {
		return 0
	}
	inter := p.Overlap(b)
	return float64(inter) / float64(len(p.query)+len(b)-inter)
}
