package sketch

import (
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// QGrams returns the multiset of character q-grams of s (lowercased),
// padded with q-1 leading/trailing '#'. D3L uses q-gram profiles of
// attribute names as one of its five relatedness features.
func QGrams(s string, q int) []string {
	if q <= 0 {
		q = 3
	}
	pad := strings.Repeat("#", q-1)
	padded := pad + strings.ToLower(s) + pad
	runes := []rune(padded)
	if len(runes) < q {
		return nil
	}
	out := make([]string, 0, len(runes)-q+1)
	for i := 0; i+q <= len(runes); i++ {
		out = append(out, string(runes[i:i+q]))
	}
	return out
}

// Tokenize splits text into lowercase word tokens, treating any
// non-alphanumeric rune as a separator.
func Tokenize(s string) []string { return AppendTokens(nil, s) }

// AppendTokens appends the tokens Tokenize returns for s to dst and
// returns the extended slice. The tokens are substrings of s, or of its
// lowercased copy when s has upper-case letters, so a caller that reuses
// dst allocates nothing for text that is already lowercase.
func AppendTokens(dst []string, s string) []string {
	s = strings.ToLower(s)
	start := -1
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		var word bool
		if r < utf8.RuneSelf {
			word = 'a' <= r && r <= 'z' || '0' <= r && r <= '9'
		} else {
			r, size = utf8.DecodeRuneInString(s[i:])
			word = unicode.IsLetter(r) || unicode.IsDigit(r)
		}
		switch {
		case word && start < 0:
			start = i
		case !word && start >= 0:
			dst = append(dst, s[start:i])
			start = -1
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// Norm returns v's Euclidean norm, math.Sqrt of Σ v[i]² summed in
// index order. A caller that compares one vector many times keeps its
// norm beside it and hands it to Cosine.
func Norm(v []float64) float64 {
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	return math.Sqrt(ss)
}

// Cosine computes the cosine similarity of dense vectors of equal
// length whose norms (Norm) are na and nb: their dot product over the
// product of the norms. It is 0 when the lengths differ or either
// vector is empty or all zeros.
func Cosine(a, b []float64, na, nb float64) float64 {
	if len(a) != len(b) || len(a) == 0 || na == 0 || nb == 0 {
		return 0
	}
	var dot float64
	for i := range a {
		dot += a[i] * b[i]
	}
	return dot / (na * nb)
}

// CDF is a numeric sample's empirical distribution function, held as
// its steps: each distinct value, ascending, and the share of the
// sample at or below it, float64(count)/float64(len(sample)). D3L
// compares numeric attribute distributions on it. A sample is turned
// into steps once, when its column is profiled; a comparison then
// reads each step's share instead of dividing it out again.
type CDF struct {
	vals, fracs []float64
}

// NewCDF returns the steps of a sample sorted as sort.Float64s orders
// it. A sample holding a NaN keeps no steps, as an empty one: a walk
// over the sample could never pass its NaN, and KolmogorovSmirnov puts
// it at distance 1 from any other.
func NewCDF(sorted []float64) CDF {
	if len(sorted) == 0 || math.IsNaN(sorted[0]) {
		return CDF{}
	}
	steps := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			steps++
		}
	}
	buf := make([]float64, 2*steps)
	c := CDF{vals: buf[:0:steps], fracs: buf[steps:steps]}
	for i := 0; i < len(sorted); {
		x := sorted[i]
		for i < len(sorted) && sorted[i] <= x {
			i++
		}
		c.vals = append(c.vals, x)
		c.fracs = append(c.fracs, float64(i)/float64(len(sorted)))
	}
	return c
}

// KolmogorovSmirnov computes the two-sample KS statistic
// sup_x |F_a(x) - F_b(x)| over two empirical CDFs; 1 when either has
// no steps.
func KolmogorovSmirnov(a, b CDF) float64 {
	if len(a.vals) == 0 || len(b.vals) == 0 {
		return 1
	}
	var i, j int
	var fa, fb, d float64
	for i < len(a.vals) && j < len(b.vals) {
		x, y := a.vals[i], b.vals[j]
		if x <= y {
			fa = a.fracs[i]
			i++
		}
		if y <= x {
			fb = b.fracs[j]
			j++
		}
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

// RegexPattern generalizes a value into a character-class pattern:
// runs of letters become "a+", digits "9+", everything else kept
// verbatim. DATAMARAN-style structure templates and D3L's format
// feature both build on this generalization.
func RegexPattern(s string) string { return string(AppendRegexPattern(nil, s)) }

// AppendRegexPattern appends RegexPattern(s) to dst and returns the
// extended slice, so a caller that reuses dst and keeps only distinct
// patterns allocates one string per pattern, not one per value.
func AppendRegexPattern(dst []byte, s string) []byte {
	var prev rune
	for _, r := range s {
		var class rune
		switch {
		case unicode.IsLetter(r):
			class = 'a'
		case unicode.IsDigit(r):
			class = '9'
		default:
			class = r
		}
		if class == prev && (class == 'a' || class == '9') {
			continue // collapse runs
		}
		if class == 'a' {
			dst = append(dst, "a+"...)
		} else if class == '9' {
			dst = append(dst, "9+"...)
		} else {
			dst = utf8.AppendRune(dst, class)
		}
		prev = class
	}
	return dst
}

// Levenshtein computes the edit distance between two strings. DS-kNN
// compares dataset feature strings with it; most pairs are equal, and
// those return before any table is built.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) < asciiRow && len(b) < asciiRow && isASCII(a) && isASCII(b) {
		return levenshteinASCII(a, b)
	}
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

// asciiRow bounds the strings levenshteinASCII takes: both rows of its
// table fit on the stack.
const asciiRow = 64

// levenshteinASCII is Levenshtein for ASCII strings shorter than
// asciiRow bytes, where bytes are runes.
func levenshteinASCII(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	var rows [2][asciiRow]int
	prev, curr := rows[0][:len(b)+1], rows[1][:len(b)+1]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			curr[j] = min3(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
		}
		prev, curr = curr, prev
	}
	return prev[len(b)]
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// LevenshteinSim normalizes edit distance to a similarity in [0,1].
func LevenshteinSim(a, b string) float64 {
	if a == b {
		return 1
	}
	d := Levenshtein(a, b)
	m := len([]rune(a))
	if n := len([]rune(b)); n > m {
		m = n
	}
	return 1 - float64(d)/float64(m)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
