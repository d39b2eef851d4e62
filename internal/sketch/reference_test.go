package sketch

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// Containment computes |A∩B| / |A| by the merge walk Overlap: the
// kernel Juneau's key containment read before it scored through a
// Probe, kept as an oracle.
func Containment(a, b Set) float64 {
	if len(a) == 0 {
		return 0
	}
	return float64(Overlap(a, b)) / float64(len(a))
}

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

// probePair draws two Sets of one shape over the ids of d, which
// interns "v0", "v1", ... in order so that value "vN" has id N, and
// returns them with their values. b is built by a Lookup when unseen
// is set, and then also holds values the Dict has never seen, whose
// ids lie above every interned one.
func probePair(rng *rand.Rand, d *Dict, shape int) (a, b []string, sa, sb Set) {
	n := d.Len()
	span := func(lo, hi int) []string { // the ids in [lo, hi), each kept at 3 in 4
		var out []string
		for id := lo; id < hi; id++ {
			if rng.Intn(4) > 0 {
				out = append(out, fmt.Sprint("v", id))
			}
		}
		return out
	}
	at := func(ids ...int) []string {
		var out []string
		for _, id := range ids {
			out = append(out, fmt.Sprint("v", id))
		}
		return out
	}
	lo := rng.Intn(n / 2)
	w := 1 + rng.Intn(200)
	switch shape {
	case 0: // one or both empty
		switch rng.Intn(3) {
		case 0:
			b = span(lo, lo+w)
		case 1:
			a = span(lo, lo+w)
		}
	case 1: // single ids, id 0 among them
		a, b = at(rng.Intn(3)), at(rng.Intn(3))
	case 2: // disjoint ranges, either way round
		a, b = span(lo, lo+w), span(lo+w+1+rng.Intn(100), lo+2*w+100)
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
	case 3: // touching ranges: a ends where b starts, or one id before
		end := lo + w
		a, b = append(span(lo, end), at(end)...), append(at(end+rng.Intn(2)), span(end+1, end+w)...)
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
	case 4: // one range inside the other, from id 0 or not
		if rng.Intn(3) == 0 {
			lo = 0
		}
		inner := lo + rng.Intn(w)
		a, b = span(lo, lo+w+64), span(inner, inner+1+rng.Intn(w))
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
	default: // anything, across word boundaries
		a, b = span(lo, lo+w), span(lo+rng.Intn(w+64), lo+w+rng.Intn(130))
	}
	sa = d.Set(a)
	if rng.Intn(2) == 0 {
		b = append(b, fmt.Sprint("unseen", rng.Intn(3)), fmt.Sprint("unseen", 3+rng.Intn(3)))
		return a, b, sa, d.Lookup().Set(b)
	}
	return a, b, sa, d.Set(b)
}

// Probe's kernels agree with the merge walk and with the map oracles,
// Jaccard and Containment bit for bit, on generated Sets: empty ones, single ids, id 0,
// disjoint and touching ranges, one range inside the other, and ids a
// Lookup hands out above the Dict. One Probe serves every case, so a
// Reset to a narrower query must forget the wider one's bits.
func TestProbeMatchesMergeAndMapReference(t *testing.T) {
	const seed = 20261020
	rng := rand.New(rand.NewSource(seed))
	d := NewDict()
	var all []string
	for id := 0; id < 1000; id++ {
		all = append(all, fmt.Sprint("v", id))
	}
	d.Set(all)
	bits := math.Float64bits
	var p Probe
	for i := 0; i < 3000; i++ {
		shape := i % 6
		a, b, sa, sb := probePair(rng, d, shape)
		ma, mb := refToSet(a), refToSet(b)
		for k, q := range [][2]Set{{sa, sb}, {sb, sa}} {
			p.Reset(q[0])
			mq, mc := ma, mb
			if k == 1 {
				mq, mc = mb, ma
			}
			if got, merge, ref := p.Containment(q[1]), Containment(q[0], q[1]), refContainment(mq, mc); bits(got) != bits(merge) || bits(got) != bits(ref) {
				t.Fatalf("seed %d case %d (shape %d): Probe(%v).Containment(%v) = %v, merge %v, map %v", seed, i, shape, q[0], q[1], got, merge, ref)
			}
			if got, merge, ref := p.Overlap(q[1]), Overlap(q[0], q[1]), refOverlap(ma, mb); got != merge || got != ref {
				t.Fatalf("seed %d case %d (shape %d): Probe(%v).Overlap(%v) = %d, merge %d, map %d", seed, i, shape, q[0], q[1], got, merge, ref)
			}
			if got, merge, ref := p.Jaccard(q[1]), ExactJaccard(q[0], q[1]), refExactJaccard(ma, mb); bits(got) != bits(merge) || bits(got) != bits(ref) {
				t.Fatalf("seed %d case %d (shape %d): Probe(%v).Jaccard(%v) = %v, merge %v, map %v", seed, i, shape, q[0], q[1], got, merge, ref)
			}
		}
	}
}

// FuzzProbeOverlap: Probe's Overlap, Jaccard and Containment against the merge walk
// and the map oracles on two Sets decoded from bytes. The first byte
// splits the rest between the Sets; each following pair of bytes is
// one id below 1024, so Sets start, end and meet anywhere in a 64-bit
// word, and the Probe is reused from the previous input.
func FuzzProbeOverlap(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0})                        // id 0 in both
	f.Add([]byte{4, 0, 1, 0, 63, 0, 64, 0, 65})         // across a word boundary
	f.Add([]byte{0, 1, 0})                              // an empty query
	f.Add([]byte{6, 0, 10, 0, 20, 0, 30, 0, 40, 0, 50}) // disjoint ranges
	f.Add([]byte{2, 3, 255, 0, 5, 3, 255})              // the highest id, touching
	var p Probe
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		split := min(int(data[0]), len(data)-1)
		ids := func(raw []byte) Set {
			s := Set{}
			for i := 0; i+1 < len(raw); i += 2 {
				s = append(s, (uint32(raw[i])<<8|uint32(raw[i+1]))%1024)
			}
			return s.sorted()
		}
		a, b := ids(data[1:1+split]), ids(data[1+split:])
		ma, mb := map[string]struct{}{}, map[string]struct{}{}
		for _, id := range a {
			ma[fmt.Sprint(id)] = struct{}{}
		}
		for _, id := range b {
			mb[fmt.Sprint(id)] = struct{}{}
		}
		p.Reset(a)
		if got, merge, ref := p.Overlap(b), Overlap(a, b), refOverlap(ma, mb); got != merge || got != ref {
			t.Fatalf("Probe(%v).Overlap(%v) = %d, merge %d, map %d", a, b, got, merge, ref)
		}
		if got, merge, ref := p.Jaccard(b), ExactJaccard(a, b), refExactJaccard(ma, mb); math.Float64bits(got) != math.Float64bits(merge) || math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("Probe(%v).Jaccard(%v) = %v, merge %v, map %v", a, b, got, merge, ref)
		}
		if got, merge, ref := p.Containment(b), Containment(a, b), refContainment(ma, mb); math.Float64bits(got) != math.Float64bits(merge) || math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("Probe(%v).Containment(%v) = %v, merge %v, map %v", a, b, got, merge, ref)
		}
	})
}

// refNewMinHash is NewMinHash as it was before mod61 and fnv64a, kept
// verbatim as the oracle: hash/fnv's hasher over a byte copy, and a
// division per coordinate.
func refNewMinHash(k int, values []string) []uint64 {
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
	return sig
}

// NewMinHash signs every value list as the division-based oracle does,
// coordinate for coordinate, at signature lengths inside and past the
// shared parameter table; mod61 is x % mersenne61 at the edges of its
// one subtraction and on random words.
func TestMinHashMatchesDivisionReference(t *testing.T) {
	const seed = 20261021
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 600; i++ {
		a, b := setPair(rng, i%5)
		for _, k := range []int{0, 1, 64, 128, 256, 300} {
			for _, vals := range [][]string{a, b} {
				if got, want := NewMinHash(k, vals).Signature(), refNewMinHash(k, vals); !slices.Equal(got, want) {
					t.Fatalf("seed %d case %d: NewMinHash(%d, %q) = %v, want %v", seed, i, k, vals, got, want)
				}
			}
		}
	}
	edges := []uint64{0, 1, mersenne61 - 1, mersenne61, mersenne61 + 1, 2 * mersenne61, 2*mersenne61 + 6, 1 << 61, 1<<61 - 7, math.MaxUint64, math.MaxUint64 - mersenne61}
	for q := uint64(0); q < 8; q++ {
		// q·2⁶¹ + r ≡ q + r: the sums that land on mersenne61 exactly.
		edges = append(edges, q<<61|(mersenne61-q), q<<61|(mersenne61-q-1), q<<61)
	}
	for i := 0; i < 100000; i++ {
		edges = append(edges, rng.Uint64())
	}
	for _, x := range edges {
		if got, want := mod61(x), x%mersenne61; got != want {
			t.Fatalf("mod61(%#x) = %#x, want %#x", x, got, want)
		}
	}
}

// refCosine, refKolmogorovSmirnov and refRegexPattern are Cosine,
// KolmogorovSmirnov and RegexPattern as they were before cached norms,
// CDF steps and AppendRegexPattern, kept verbatim as oracles.

func refCosine(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// refKolmogorovSmirnov never returns when bs holds a NaN and as is not
// empty: NaN <= x is false, so neither index passes it.
func refKolmogorovSmirnov(as, bs []float64) float64 {
	if len(as) == 0 || len(bs) == 0 {
		return 1
	}
	var i, j int
	var d float64
	for i < len(as) && j < len(bs) {
		var x float64
		if as[i] <= bs[j] {
			x = as[i]
		} else {
			x = bs[j]
		}
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

func refRegexPattern(s string) string {
	var sb strings.Builder
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
			sb.WriteString("a+")
		} else if class == '9' {
			sb.WriteString("9+")
		} else {
			sb.WriteRune(class)
		}
		prev = class
	}
	return sb.String()
}

// Cosine over norms taken once answers as the oracle that sums both
// norms beside the dot product, bit for bit, on vectors with zeros,
// negative zero, infinities, NaN, subnormals and mismatched lengths.
func TestCosineMatchesReference(t *testing.T) {
	const seed = 20261020
	rng := rand.New(rand.NewSource(seed))
	special := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e300, -1e-300}
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(6) {
			case 0:
				v[i] = special[rng.Intn(len(special))]
			case 1:
				v[i] = 0
			default:
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	for i := 0; i < 20000; i++ {
		n := rng.Intn(9)
		a, b := vec(n), vec(n)
		if i%7 == 0 {
			b = vec(rng.Intn(9))
		}
		if got, want := Cosine(a, b, Norm(a), Norm(b)), refCosine(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d case %d: Cosine(%v, %v) = %v, want %v", seed, i, a, b, got, want)
		}
	}
}

// FuzzKSSteps checks KolmogorovSmirnov over two samples' CDF steps
// against the walk over the sorted samples themselves, bit for bit. The
// samples are arbitrary float64 bit patterns, or, with small set, small
// multiples of 1/4 with -0 beside 0, so that values repeat within and
// across the samples. A sample with a NaN compares at 1: the oracle
// answers so when only its first sample has one, and never returns
// otherwise, so it is not asked then.
func FuzzKSSteps(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 4}, true)
	f.Add([]byte{0, 0x80, 0, 4}, []byte{0x80, 0, 8}, true)
	f.Add([]byte{7, 7, 7}, []byte{7}, true)
	f.Add([]byte{}, []byte{1}, true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, false) // NaN, 1 against 1
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, false) // +Inf against -Inf, +Inf
	f.Fuzz(func(t *testing.T, ra, rb []byte, small bool) {
		if len(ra) > 4096 || len(rb) > 4096 {
			return
		}
		sample := func(raw []byte) []float64 {
			var xs []float64
			if small {
				for _, c := range raw {
					x := float64(int8(c)) / 4
					if c == 0x80 {
						x = math.Copysign(0, -1)
					}
					xs = append(xs, x)
				}
			} else {
				for i := 0; i+8 <= len(raw); i += 8 {
					xs = append(xs, math.Float64frombits(uint64(raw[i])|uint64(raw[i+1])<<8|uint64(raw[i+2])<<16|uint64(raw[i+3])<<24|
						uint64(raw[i+4])<<32|uint64(raw[i+5])<<40|uint64(raw[i+6])<<48|uint64(raw[i+7])<<56))
				}
			}
			sort.Float64s(xs)
			return xs
		}
		as, bs := sample(ra), sample(rb)
		got := KolmogorovSmirnov(NewCDF(as), NewCDF(bs))
		hasNaN := func(xs []float64) bool { return len(xs) > 0 && math.IsNaN(xs[0]) }
		switch {
		case hasNaN(as) || hasNaN(bs):
			if got != 1 {
				t.Fatalf("KS(%v, %v) = %v, want 1 beside a NaN", as, bs, got)
			}
			if !hasNaN(bs) {
				if want := refKolmogorovSmirnov(as, bs); want != 1 {
					t.Fatalf("oracle KS(%v, %v) = %v, want 1 beside a NaN", as, bs, want)
				}
			}
		default:
			if want := refKolmogorovSmirnov(as, bs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("KS(%v, %v) = %v, walk over the samples %v", as, bs, got, want)
			}
		}
	})
}

// AppendRegexPattern, reusing one buffer, writes the pattern the
// strings.Builder oracle builds, over letters, digits, punctuation,
// non-ASCII letters and digits, invalid UTF-8 and the empty string.
func TestRegexPatternMatchesBuilderReference(t *testing.T) {
	const seed = 20261020
	rng := rand.New(rand.NewSource(seed))
	pieces := []string{"a", "Z", "7", "-", " ", "é", "ß", "٣", "€", "\xff", "\xe2\x82", "ab12", "::", ""}
	var buf []byte
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		s := sb.String()
		buf = AppendRegexPattern(buf[:0], s)
		if got, want := string(buf), refRegexPattern(s); got != want || RegexPattern(s) != want {
			t.Fatalf("seed %d: AppendRegexPattern(%q) = %q, RegexPattern %q, want %q", seed, s, got, RegexPattern(s), want)
		}
	}
}
