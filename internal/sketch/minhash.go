// Package sketch implements the similarity machinery shared by the
// surveyed discovery systems: MinHash signatures and LSH indexes
// (Aurum, D3L, Juneau), q-gram and TF-IDF representations (D3L),
// inverted indexes over set values (JOSIE), random-projection cosine
// sketches (D3L embeddings), and the Kolmogorov-Smirnov statistic
// (D3L, RNLIM numeric-domain matching).
package sketch

import (
	"hash/fnv"
	"math"
	"sort"
	"strings"
)

// MinHash is a fixed-size signature of a set of strings whose
// coordinate-wise collision probability estimates Jaccard similarity.
type MinHash struct {
	sig []uint64
}

// hashPair derives k pairwise-independent-ish hash values from one FNV
// base hash using the standard (a*h + b) trick over a 61-bit prime.
const mersenne61 = (1 << 61) - 1

// seeds for the affine family; generated once per process deterministically.
func affineParams(k int) (as, bs []uint64) {
	as = make([]uint64, k)
	bs = make([]uint64, k)
	// xorshift64 with fixed seed: deterministic across runs so that
	// signatures computed at ingestion time remain comparable later.
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < k; i++ {
		as[i] = next()%(mersenne61-1) + 1
		bs[i] = next() % mersenne61
	}
	return as, bs
}

var paramCache = map[int][2][]uint64{}

func params(k int) ([]uint64, []uint64) {
	if p, ok := paramCache[k]; ok {
		return p[0], p[1]
	}
	a, b := affineParams(k)
	paramCache[k] = [2][]uint64{a, b}
	return a, b
}

// NewMinHash computes a k-coordinate MinHash signature of the given set.
// k must be positive; typical values are 64-256.
func NewMinHash(k int, values []string) *MinHash {
	if k <= 0 {
		k = 128
	}
	as, bs := params(k)
	sig := make([]uint64, k)
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	for _, v := range values {
		h := fnv.New64a()
		_, _ = h.Write([]byte(v))
		base := h.Sum64() % mersenne61
		for i := 0; i < k; i++ {
			hv := (as[i]*base + bs[i]) % mersenne61
			if hv < sig[i] {
				sig[i] = hv
			}
		}
	}
	return &MinHash{sig: sig}
}

// K returns the signature length.
func (m *MinHash) K() int { return len(m.sig) }

// Signature exposes the raw signature values (read-only by convention).
func (m *MinHash) Signature() []uint64 { return m.sig }

// Jaccard estimates the Jaccard similarity between the two sets
// underlying the signatures. Both signatures must have the same length.
func (m *MinHash) Jaccard(o *MinHash) float64 {
	if len(m.sig) != len(o.sig) || len(m.sig) == 0 {
		return 0
	}
	match := 0
	for i := range m.sig {
		if m.sig[i] == o.sig[i] {
			match++
		}
	}
	return float64(match) / float64(len(m.sig))
}

// Set is a set of strings held as a sorted, duplicate-free slice, the
// form every set similarity here takes: two Sets intersect in one merge
// walk, and a Set is already the sorted value list NewMinHash is fed.
// Build one with ToSet; the similarity functions rely on the order.
type Set []string

// ToSet returns the distinct values as a Set. values is not modified.
func ToSet(values []string) Set {
	s := append(Set(nil), values...)
	sort.Strings(s)
	n := 0
	for i, v := range s {
		if i == 0 || v != s[n-1] {
			s[n] = v
			n++
		}
	}
	return s[:n]
}

// Has reports whether v is a member.
func (s Set) Has(v string) bool {
	i := sort.SearchStrings(s, v)
	return i < len(s) && s[i] == v
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
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := strings.Compare(a[i], b[j]); {
		case c == 0:
			inter++
			i++
			j++
		case c < 0:
			i++
		default:
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
