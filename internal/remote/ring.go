package remote

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVnodes is the per-member virtual-node count: enough points
// that a handful of members split the keyspace within a few percent of
// even, small enough that building a ring is microseconds.
const DefaultVnodes = 64

// Ring is a thin consistent-hash placement helper: it routes a dataset
// name to one of N member lakes, and keeps most placements stable when
// the member set changes (only the keys owned by a removed member
// move). The engine's Locate hook uses it to resolve bare dataset names
// that live on no local store.
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring over the member names with vnodes virtual nodes
// each (<= 0 uses DefaultVnodes). Member order does not matter; the
// same member set always yields the same placements.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{}
	for _, m := range members {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(m + "#" + strconv.Itoa(i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Locate returns the member owning key: the first virtual node at or
// clockwise after the key's hash. ok is false on an empty ring.
func (r *Ring) Locate(key string) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member, true
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
