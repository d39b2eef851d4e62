// Package sketch implements the similarity machinery shared by the
// surveyed discovery systems: MinHash signatures and LSH indexes (D3L),
// q-gram representations (D3L), inverted indexes over set values
// (JOSIE), exact set similarity over interned values (JOSIE, D3L,
// Juneau), cosine over embeddings (D3L), and the Kolmogorov-Smirnov
// statistic (D3L numeric-domain matching).
package sketch

import "math"

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

// The generator draws each coordinate's pair in turn, so the parameters
// for k coordinates are a prefix of those for any larger k: one table,
// built at init and never written after, serves every signature length
// up to its size, and readers share it without a lock.
var affineA, affineB = affineParams(256)

func params(k int) ([]uint64, []uint64) {
	if k <= len(affineA) {
		return affineA[:k], affineB[:k]
	}
	return affineParams(k)
}

// NewMinHash computes a k-coordinate MinHash signature of the given set.
// k must be positive; typical values are 64-256. The signature depends
// on the distinct values only, not on their order or repeats, and is
// computed from the strings, never from ids a Dict assigned.
func NewMinHash(k int, values []string) *MinHash {
	if k <= 0 {
		k = 128
	}
	as, bs := params(k)
	sig := make([]uint64, k)
	for i := range sig {
		sig[i] = math.MaxUint64
	}
	as, bs = as[:len(sig)], bs[:len(sig)]
	for _, v := range values {
		base := mod61(fnv64a(v))
		for i, a := range as {
			if hv := mod61(a*base + bs[i]); hv < sig[i] {
				sig[i] = hv
			}
		}
	}
	return &MinHash{sig: sig}
}

// fnv64a is the 64-bit FNV-1a hash of s, hash/fnv's New64a without
// the hasher or the copy of s into bytes.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mod61 is x % mersenne61 without a division: 2⁶¹ ≡ 1, so x is
// congruent to its low 61 bits plus its top 3, a sum below
// 2·mersenne61 that one subtraction brings into range.
func mod61(x uint64) uint64 {
	r := x&mersenne61 + x>>61
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// K returns the signature length.
func (m *MinHash) K() int { return len(m.sig) }

// Signature exposes the raw signature values (read-only by convention).
func (m *MinHash) Signature() []uint64 { return m.sig }
