package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The map-based set similarities the sorted-merge ones replaced, kept
// verbatim as oracles.

func refToSet(values []string) map[string]struct{} {
	s := make(map[string]struct{}, len(values))
	for _, v := range values {
		s[v] = struct{}{}
	}
	return s
}

func refExactJaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	for v := range small {
		if _, ok := large[v]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func refOverlap(a, b map[string]struct{}) int {
	inter := 0
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	for v := range small {
		if _, ok := large[v]; ok {
			inter++
		}
	}
	return inter
}

func refContainment(a, b map[string]struct{}) float64 {
	if len(a) == 0 {
		return 0
	}
	return float64(refOverlap(a, b)) / float64(len(a))
}

// setPair draws two value lists of one shape from a small alphabet, so
// that duplicates and partial overlaps are common.
func setPair(rng *rand.Rand, shape int) (a, b []string) {
	alphabet := []string{"a", "b", "c", "ab", "ba", "A", "", " ", "ä", "é", "日本", "日", "\x00", "\xff", "z", "zz"}
	draw := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
			if rng.Intn(3) == 0 {
				out[i] += fmt.Sprint(rng.Intn(4))
			}
		}
		return out
	}
	switch shape {
	case 0: // one or both empty
		if rng.Intn(2) == 0 {
			return nil, draw(rng.Intn(5))
		}
		return draw(rng.Intn(5)), []string{}
	case 1: // duplicate-laden
		a = draw(1 + rng.Intn(30))
		return append(a, a...), append(draw(rng.Intn(30)), a[:len(a)/2]...)
	case 2: // equal as sets, different order and multiplicity
		a = draw(1 + rng.Intn(20))
		b = append([]string(nil), a...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		return a, append(b, a[0])
	case 3: // disjoint
		a = draw(1 + rng.Intn(20))
		for i, v := range draw(1 + rng.Intn(20)) {
			b = append(b, fmt.Sprintf("only-b-%d-%s", i, v))
		}
		return a, b
	default: // anything
		return draw(rng.Intn(40)), draw(rng.Intn(40))
	}
}

func TestSetSimilarityMatchesMapReference(t *testing.T) {
	const seed = 20261015
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2000; i++ {
		shape := i % 5
		a, b := setPair(rng, shape)
		sa, sb := ToSet(a), ToSet(b)
		ma, mb := refToSet(a), refToSet(b)
		if got, want := ExactJaccard(sa, sb), refExactJaccard(ma, mb); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d case %d (shape %d): ExactJaccard(%q, %q) = %v, want %v", seed, i, shape, a, b, got, want)
		}
		if got, want := Overlap(sa, sb), refOverlap(ma, mb); got != want {
			t.Fatalf("seed %d case %d (shape %d): Overlap(%q, %q) = %d, want %d", seed, i, shape, a, b, got, want)
		}
		if got, want := Containment(sa, sb), refContainment(ma, mb); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d case %d (shape %d): Containment(%q, %q) = %v, want %v", seed, i, shape, a, b, got, want)
		}
		if got, want := Containment(sb, sa), refContainment(mb, ma); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d case %d (shape %d): Containment(%q, %q) = %v, want %v", seed, i, shape, b, a, got, want)
		}
		if len(sa) != len(ma) {
			t.Fatalf("seed %d case %d (shape %d): ToSet(%q) has %d members, want %d", seed, i, shape, a, len(sa), len(ma))
		}
	}
}
