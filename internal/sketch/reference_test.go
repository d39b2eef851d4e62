package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// refTokenize and refLevenshtein are Tokenize and Levenshtein as they
// were before AppendTokens and the ASCII path, kept verbatim as oracles.

func refTokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

func refLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	curr := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		curr[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			curr[j] = min3(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
		}
		prev, curr = curr, prev
	}
	return prev[len(rb)]
}

var textSeeds = []string{
	"", " ", "Hello, World_42! foo-bar", "c3_v12", "new york", "ALL CAPS",
	"ÄÖÜ straße", "日本語 テキスト", "İstanbul", "\xff\xfeab", "a\x00b", "x-1.5e3",
	"5|int,int,string,string", strings.Repeat("ab", 31) + "a", strings.Repeat("z", 64),
}

// AppendTokens gives Tokenize's old tokens and keeps what dst held.
func FuzzAppendTokens(f *testing.F) {
	for _, s := range textSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := refTokenize(s)
		if got := Tokenize(s); !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
		got := AppendTokens([]string{"kept"}, s)
		if len(got) == 0 || got[0] != "kept" || !slices.Equal(got[1:], want) {
			t.Fatalf("AppendTokens([kept], %q) = %q, want kept + %q", s, got, want)
		}
	})
}

// refLevenshteinSim is LevenshteinSim over refLevenshtein, as it was
// before the equal-string shortcut.
func refLevenshteinSim(a, b string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	m := max(len([]rune(a)), len([]rune(b)))
	return 1 - float64(refLevenshtein(a, b))/float64(m)
}

// Levenshtein, ASCII path, equal-string shortcut or neither, agrees
// with the rune-slice body, and LevenshteinSim with its normalisation.
// Independent inputs almost never collide, so equal pairs are seeded.
func FuzzLevenshtein(f *testing.F) {
	for i, a := range textSeeds {
		f.Add(a, textSeeds[(i+3)%len(textSeeds)])
		f.Add(a, a)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := Levenshtein(a, b), refLevenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %d, want %d", a, b, got, want)
		}
		if got := Levenshtein(a, a); got != 0 {
			t.Fatalf("Levenshtein(%q, itself) = %d, want 0", a, got)
		}
		if got, want := LevenshteinSim(a, b), refLevenshteinSim(a, b); got != want {
			t.Fatalf("LevenshteinSim(%q, %q) = %v, want %v", a, b, got, want)
		}
	})
}

// The set similarities the id-based ones replaced, kept verbatim as
// oracles: first over maps, then over sorted string slices merged with
// strings.Compare.

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

func refStringSet(values []string) []string {
	s := append([]string(nil), values...)
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

func refStringOverlap(a, b []string) int {
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

func refStringJaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := refStringOverlap(a, b)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

func refStringContainment(a, b []string) float64 {
	if len(a) == 0 {
		return 0
	}
	return float64(refStringOverlap(a, b)) / float64(len(a))
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

// The id kernels agree bit for bit with both oracles, whether the
// second Set is interned or built by a Lookup that sees some of its
// values for the first time.
func TestSetSimilarityMatchesMapReference(t *testing.T) {
	const seed = 20261015
	rng := rand.New(rand.NewSource(seed))
	bits := math.Float64bits
	for i := 0; i < 2000; i++ {
		shape := i % 5
		a, b := setPair(rng, shape)
		ma, mb := refToSet(a), refToSet(b)
		ra, rb := refStringSet(a), refStringSet(b)
		d := NewDict()
		sa := d.Set(a)
		for _, sb := range []Set{d.Lookup().Set(b), d.Set(b)} {
			if got, want := ExactJaccard(sa, sb), refExactJaccard(ma, mb); bits(got) != bits(want) || bits(got) != bits(refStringJaccard(ra, rb)) {
				t.Fatalf("seed %d case %d (shape %d): ExactJaccard(%q, %q) = %v, want %v", seed, i, shape, a, b, got, want)
			}
			if got, want := Overlap(sa, sb), refOverlap(ma, mb); got != want || got != refStringOverlap(ra, rb) {
				t.Fatalf("seed %d case %d (shape %d): Overlap(%q, %q) = %d, want %d", seed, i, shape, a, b, got, want)
			}
			if got, want := Containment(sa, sb), refContainment(ma, mb); bits(got) != bits(want) || bits(got) != bits(refStringContainment(ra, rb)) {
				t.Fatalf("seed %d case %d (shape %d): Containment(%q, %q) = %v, want %v", seed, i, shape, a, b, got, want)
			}
			if got, want := Containment(sb, sa), refContainment(mb, ma); bits(got) != bits(want) || bits(got) != bits(refStringContainment(rb, ra)) {
				t.Fatalf("seed %d case %d (shape %d): Containment(%q, %q) = %v, want %v", seed, i, shape, b, a, got, want)
			}
			if len(sb) != len(mb) || len(sb) != len(rb) {
				t.Fatalf("seed %d case %d (shape %d): Set(%q) has %d members, want %d", seed, i, shape, b, len(sb), len(mb))
			}
		}
	}
}
