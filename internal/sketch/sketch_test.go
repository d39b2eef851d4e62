package sketch

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// testDict interns every set the tests build, so any two are comparable.
var testDict = NewDict()

func setOf(vs ...string) Set { return testDict.Set(vs) }

func TestDictSetSortsAndDedupes(t *testing.T) {
	d := NewDict()
	in := []string{"b", "a", "b", "", "a"}
	got := d.Set(in)
	if len(got) != 3 || !slices.IsSorted(got) {
		t.Errorf("Set(%q) = %v, want 3 sorted ids", in, got)
	}
	if fmt.Sprint(in) != fmt.Sprint([]string{"b", "a", "b", "", "a"}) {
		t.Errorf("Set modified its input: %q", in)
	}
	var values []string
	for _, id := range got {
		values = append(values, d.Value(id))
	}
	slices.Sort(values)
	if fmt.Sprint(values) != fmt.Sprint([]string{"", "a", "b"}) || d.Len() != 3 {
		t.Errorf("members %q, Len %d; want [\"\" a b], 3", values, d.Len())
	}
	b, _ := d.ID("b")
	if _, ok := d.ID("c"); ok || !got.Has(b) || got.Has(uint32(d.Len())) {
		t.Errorf("Has on %v is wrong", got)
	}
}

// A Lookup never writes its Dict: known values keep their ids, unseen
// ones get ids above every interned id, stable within the Lookup.
func TestLookupLeavesTheDictAlone(t *testing.T) {
	d := NewDict()
	known := d.Set([]string{"x", "y"})
	l := d.Lookup()
	s := l.Set([]string{"y", "new", "x", "new", "other"})
	if d.Len() != 2 {
		t.Fatalf("Lookup wrote the dictionary: Len = %d", d.Len())
	}
	if len(s) != 4 || Overlap(s, known) != 2 {
		t.Errorf("Lookup Set = %v: want 4 members, 2 shared with %v", s, known)
	}
	for _, id := range s[2:] {
		if int(id) < d.Len() {
			t.Errorf("unseen value got interned-range id %d", id)
		}
	}
	if again := l.Set([]string{"new"}); !s.Has(again[0]) {
		t.Errorf("unseen value changed id within one Lookup: %v not in %v", again, s)
	}
}

func TestExactJaccard(t *testing.T) {
	a := setOf("a", "b", "c")
	b := setOf("b", "c", "d")
	if got := ExactJaccard(a, b); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
	if got := ExactJaccard(a, a); got != 1 {
		t.Errorf("self Jaccard = %v, want 1", got)
	}
	if got := ExactJaccard(nil, nil); got != 0 {
		t.Errorf("empty Jaccard = %v, want 0", got)
	}
}

func TestOverlapAndContainment(t *testing.T) {
	a := setOf("a", "b", "c", "d")
	b := setOf("c", "d", "e")
	if got := Overlap(a, b); got != 2 {
		t.Errorf("Overlap = %d, want 2", got)
	}
	if got := Containment(b, a); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Errorf("Containment = %v, want 2/3", got)
	}
	if got := Containment(nil, a); got != 0 {
		t.Errorf("Containment(empty) = %v, want 0", got)
	}
}

func TestMinHashEstimatesJaccard(t *testing.T) {
	mk := func(n, offset int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("v%d", i+offset)
		}
		return out
	}
	// |A|=1000, |B|=1000, overlap 500 -> J = 500/1500 = 1/3.
	a := mk(1000, 0)
	b := mk(1000, 500)
	sa := NewMinHash(256, a)
	sb := NewMinHash(256, b)
	est := sa.Jaccard(sb)
	want := 1.0 / 3.0
	if math.Abs(est-want) > 0.1 {
		t.Errorf("MinHash Jaccard estimate = %v, want about %v", est, want)
	}
	// Identical sets estimate 1 exactly.
	if got := sa.Jaccard(NewMinHash(256, a)); got != 1 {
		t.Errorf("identical-set estimate = %v, want 1", got)
	}
	// Disjoint sets estimate near 0.
	c := mk(1000, 5000)
	if got := sa.Jaccard(NewMinHash(256, c)); got > 0.05 {
		t.Errorf("disjoint-set estimate = %v, want near 0", got)
	}
}

func TestMinHashDeterminism(t *testing.T) {
	vals := []string{"x", "y", "z"}
	s1 := NewMinHash(64, vals)
	s2 := NewMinHash(64, vals)
	for i := range s1.Signature() {
		if s1.Signature()[i] != s2.Signature()[i] {
			t.Fatal("MinHash signatures are not deterministic")
		}
	}
}

func TestMinHashMismatchedLengths(t *testing.T) {
	a := NewMinHash(64, []string{"a"})
	b := NewMinHash(128, []string{"a"})
	if got := a.Jaccard(b); got != 0 {
		t.Errorf("mismatched-length Jaccard = %v, want 0", got)
	}
}

func TestLSHIndexFindsSimilarItems(t *testing.T) {
	idx := NewLSHIndex(16, 8) // 128-long signatures, threshold ~0.71... actually (1/16)^(1/8)=0.707
	base := make([]string, 200)
	for i := range base {
		base[i] = fmt.Sprintf("t%d", i)
	}
	near := append(append([]string{}, base[:190]...), "x1", "x2") // J ~ 0.90
	far := []string{"q1", "q2", "q3", "q4", "q5"}                 // J ~ 0
	if err := idx.Add("base", NewMinHash(128, base)); err != nil {
		t.Fatal(err)
	}
	if err := idx.Add("near", NewMinHash(128, near)); err != nil {
		t.Fatal(err)
	}
	if err := idx.Add("far", NewMinHash(128, far)); err != nil {
		t.Fatal(err)
	}
	got := idx.Query(NewMinHash(128, base), 0.5, "base")
	if len(got) != 1 || got[0].Key != "near" {
		t.Fatalf("Query = %+v, want [near]", got)
	}
	if got[0].Jaccard < 0.6 {
		t.Errorf("near Jaccard = %v, want > 0.6", got[0].Jaccard)
	}
}

func TestLSHRemoveAndReAdd(t *testing.T) {
	idx := NewLSHIndex(8, 4)
	sig := NewMinHash(32, []string{"a", "b", "c"})
	if err := idx.Add("k", sig); err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 1 {
		t.Fatalf("Len = %d, want 1", idx.Len())
	}
	idx.Remove("k")
	if idx.Len() != 0 {
		t.Fatalf("Len after remove = %d, want 0", idx.Len())
	}
	if got := idx.Query(sig, 0, ""); len(got) != 0 {
		t.Errorf("Query after remove = %v, want empty", got)
	}
	// Re-add under same key twice: no duplicates.
	_ = idx.Add("k", sig)
	_ = idx.Add("k", sig)
	if idx.Len() != 1 {
		t.Errorf("Len after double add = %d, want 1", idx.Len())
	}
}

func TestLSHAddWrongLength(t *testing.T) {
	idx := NewLSHIndex(8, 4)
	if err := idx.Add("k", NewMinHash(16, []string{"a"})); err == nil {
		t.Error("expected error for wrong signature length")
	}
}

func TestQGrams(t *testing.T) {
	gs := QGrams("ab", 3)
	want := []string{"##a", "#ab", "ab#", "b##"}
	if len(gs) != len(want) {
		t.Fatalf("QGrams = %v, want %v", gs, want)
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Errorf("gram %d = %q, want %q", i, gs[i], want[i])
		}
	}
	if got := QGrams("", 3); len(got) != 2 {
		// "####" has 2 trigrams... padding is "##"+""+"##" = "####", 2 grams
		t.Errorf("QGrams empty = %v (len %d), want 2 grams", got, len(got))
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World_42! foo-bar")
	want := []string{"hello", "world", "42", "foo", "bar"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTFIDFRanksDistinctiveTokens(t *testing.T) {
	corpus := [][]string{
		{"the", "cat", "sat"},
		{"the", "dog", "sat"},
		{"the", "cat", "ran"},
	}
	tfidf := NewTFIDF(corpus)
	v := tfidf.Vector([]string{"the", "cat"})
	if v["cat"] <= v["the"] {
		t.Errorf("idf should downweight common tokens: cat=%v the=%v", v["cat"], v["the"])
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine([]float64{1, 0}, []float64{0, 1}); got != 0 {
		t.Errorf("orthogonal cosine = %v, want 0", got)
	}
	if got := Cosine([]float64{1, 2}, []float64{2, 4}); math.Abs(got-1) > 1e-9 {
		t.Errorf("parallel cosine = %v, want 1", got)
	}
	if got := Cosine([]float64{1}, []float64{1, 2}); got != 0 {
		t.Errorf("length mismatch cosine = %v, want 0", got)
	}
	a := map[string]float64{"x": 1, "y": 2}
	b := map[string]float64{"x": 2, "y": 4}
	if got := CosineSparse(a, b); math.Abs(got-1) > 1e-9 {
		t.Errorf("sparse parallel cosine = %v, want 1", got)
	}
}

func TestKolmogorovSmirnov(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5}
	if got := KolmogorovSmirnov(same, same); got != 0 {
		t.Errorf("KS(same,same) = %v, want 0", got)
	}
	a := []float64{1, 2, 3}
	b := []float64{100, 200, 300}
	if got := KolmogorovSmirnov(a, b); got != 1 {
		t.Errorf("KS(disjoint ranges) = %v, want 1", got)
	}
	if got := KolmogorovSmirnov(nil, a); got != 1 {
		t.Errorf("KS(empty) = %v, want 1", got)
	}
}

func TestRegexPattern(t *testing.T) {
	cases := map[string]string{
		"abc123":     "a+9+",
		"2021-01-02": "9+-9+-9+",
		"ERR[42]":    "a+[9+]",
		"":           "",
		"a1b2":       "a+9+a+9+",
	}
	for in, want := range cases {
		if got := RegexPattern(in); got != want {
			t.Errorf("RegexPattern(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		d    int
	}{
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"abc", "", 3},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.d {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.d)
		}
	}
	if got := LevenshteinSim("same", "same"); got != 1 {
		t.Errorf("LevenshteinSim same = %v, want 1", got)
	}
	if got := LevenshteinSim("", ""); got != 1 {
		t.Errorf("LevenshteinSim empty = %v, want 1", got)
	}
}

func TestInvertedIndexTopK(t *testing.T) {
	ix := NewInvertedIndex()
	ix.Add("s1", setOf("a", "b", "c"))
	ix.Add("s2", setOf("b", "c", "d"))
	ix.Add("s3", setOf("x", "y"))
	got := ix.TopKOverlap(setOf("a", "b", "c"), 2, "")
	if len(got) != 2 {
		t.Fatalf("TopK = %v, want 2 results", got)
	}
	if got[0].ID != "s1" || got[0].Overlap != 3 {
		t.Errorf("top result = %+v, want s1/3", got[0])
	}
	if got[1].ID != "s2" || got[1].Overlap != 2 {
		t.Errorf("second result = %+v, want s2/2", got[1])
	}
	// Self exclusion.
	got = ix.TopKOverlap(setOf("a", "b", "c"), 2, "s1")
	if len(got) != 1 || got[0].ID != "s2" {
		t.Errorf("TopK skipSelf = %v, want [s2]", got)
	}
}

func TestInvertedIndexRemoveAndReplace(t *testing.T) {
	ix := NewInvertedIndex()
	ix.Add("s1", setOf("a", "b"))
	ix.Add("s1", setOf("c"))
	if ix.SetSize("s1") != 1 {
		t.Errorf("SetSize after replace = %d, want 1", ix.SetSize("s1"))
	}
	if got := ix.TopKOverlap(setOf("a"), 5, ""); len(got) != 0 {
		t.Errorf("old values still indexed: %v", got)
	}
	ix.Remove("s1")
	if ix.Len() != 0 || ix.Values() != 0 {
		t.Errorf("index not empty after remove: len=%d values=%d", ix.Len(), ix.Values())
	}
}

// Property: for random sets, TopKOverlap's reported overlap equals the
// exact intersection size, and results are sorted by descending overlap.
func TestInvertedIndexOverlapProperty(t *testing.T) {
	f := func(raw [][]byte) bool {
		ix := NewInvertedIndex()
		sets := make([]Set, 0, len(raw))
		for i, bs := range raw {
			var vals []string
			for _, b := range bs {
				vals = append(vals, fmt.Sprintf("v%d", b%32))
			}
			s := setOf(vals...)
			sets = append(sets, s)
			ix.Add(fmt.Sprintf("s%d", i), s)
		}
		if len(sets) == 0 {
			return true
		}
		q := sets[0]
		res := ix.TopKOverlap(q, 0, "")
		for i, r := range res {
			var idx int
			if _, err := fmt.Sscanf(r.ID, "s%d", &idx); err != nil {
				return false
			}
			if r.Overlap != Overlap(q, sets[idx]) {
				return false
			}
			if i > 0 && res[i-1].Overlap < r.Overlap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: MinHash Jaccard estimate is within 0.2 of exact Jaccard for
// random medium-size sets with 256 hash functions.
func TestMinHashAccuracyProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := 300 + int(seed)
		a := make([]string, 0, n)
		b := make([]string, 0, n)
		shift := int(seed) % 200
		for i := 0; i < n; i++ {
			a = append(a, fmt.Sprintf("e%d", i))
			b = append(b, fmt.Sprintf("e%d", i+shift))
		}
		exact := ExactJaccard(setOf(a...), setOf(b...))
		est := NewMinHash(256, a).Jaccard(NewMinHash(256, b))
		return math.Abs(exact-est) < 0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestWeightedEuclidean(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := Euclidean(a, b); math.Abs(got-5) > 1e-9 {
		t.Errorf("Euclidean = %v, want 5", got)
	}
	w := []float64{1, 0}
	if got := WeightedEuclidean(a, b, w); math.Abs(got-3) > 1e-9 {
		t.Errorf("WeightedEuclidean = %v, want 3", got)
	}
	if got := Euclidean([]float64{1}, b); !math.IsInf(got, 1) {
		t.Errorf("length mismatch should be +Inf, got %v", got)
	}
}
