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
	want := Set{d.ids[""], d.ids["a"], d.ids["b"]}
	slices.Sort(want)
	if !slices.Equal(got, want) || d.Len() != 3 {
		t.Errorf("Set = %v, Len %d; want the ids of [\"\" a b] %v, 3", got, d.Len(), want)
	}
	if _, ok := d.ids["c"]; ok {
		t.Error("Set interned a value it was not given")
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
	if again := l.Set([]string{"new"}); !slices.Contains(s, again[0]) {
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

// estimateJaccard is the fraction of signature positions two equal-length
// MinHash signatures agree on, the estimate LSH banding relies on.
func estimateJaccard(a, b *MinHash) float64 {
	match := 0
	for i, v := range a.Signature() {
		if v == b.Signature()[i] {
			match++
		}
	}
	return float64(match) / float64(a.K())
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
	est := estimateJaccard(sa, sb)
	want := 1.0 / 3.0
	if math.Abs(est-want) > 0.1 {
		t.Errorf("MinHash Jaccard estimate = %v, want about %v", est, want)
	}
	// Identical sets estimate 1 exactly.
	if got := estimateJaccard(sa, NewMinHash(256, a)); got != 1 {
		t.Errorf("identical-set estimate = %v, want 1", got)
	}
	// Disjoint sets estimate near 0.
	c := mk(1000, 5000)
	if got := estimateJaccard(sa, NewMinHash(256, c)); got > 0.05 {
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

func TestLSHIndexFindsSimilarItems(t *testing.T) {
	idx := NewLSHIndex(16, 8) // 128-long signatures, threshold (1/16)^(1/8) ~ 0.71
	base := make([]string, 200)
	for i := range base {
		base[i] = fmt.Sprintf("t%d", i)
	}
	near := append(append([]string{}, base[:190]...), "x1", "x2") // J ~ 0.90
	far := []string{"q1", "q2", "q3", "q4", "q5"}                 // J ~ 0
	for slot, vals := range [][]string{base, near, far} {
		if err := idx.Add(uint32(slot), idx.Bands(NewMinHash(128, vals))); err != nil {
			t.Fatal(err)
		}
	}
	got := idx.AppendSlots(nil, idx.Bands(NewMinHash(128, base)))
	slices.Sort(got)
	if got = slices.Compact(got); !slices.Equal(got, []uint32{0, 1}) {
		t.Fatalf("AppendSlots = %v, want [0 1] (base and near)", got)
	}
}

func TestLSHRemoveAndReAdd(t *testing.T) {
	idx := NewLSHIndex(8, 4)
	bands := idx.Bands(NewMinHash(32, []string{"a", "b", "c"}))
	if err := idx.Add(7, bands); err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 1 {
		t.Fatalf("Len = %d, want 1", idx.Len())
	}
	idx.Remove(7)
	if idx.Len() != 0 {
		t.Fatalf("Len after remove = %d, want 0", idx.Len())
	}
	if got := idx.AppendSlots(nil, bands); len(got) != 0 {
		t.Errorf("AppendSlots after remove = %v, want empty", got)
	}
	// Removing an empty slot, or one past every slot, is a no-op.
	idx.Remove(7)
	idx.Remove(1000)
	// Re-add into the same slot twice: no duplicates.
	_ = idx.Add(7, bands)
	_ = idx.Add(7, bands)
	if idx.Len() != 1 {
		t.Errorf("Len after double add = %d, want 1", idx.Len())
	}
	if got := idx.AppendSlots(nil, bands); len(got) != 8 || slices.ContainsFunc(got, func(s uint32) bool { return s != 7 }) {
		t.Errorf("AppendSlots after double add = %v, want slot 7 once per band", got)
	}
}

// AppendSlots, sorted and deduplicated, is exactly the set of slots
// whose band hashes agree with the probe's on at least one band — the
// brute-force LSH candidacy test — across removals and slot reuse, and
// it leaves the prefix of dst alone.
func TestLSHAppendSlotsMatchesBandScan(t *testing.T) {
	idx := NewLSHIndex(8, 2)
	bands := make([][]uint64, 40) // slot -> band hashes; nil while free
	sigOf := func(i int) []uint64 {
		var vals []string
		for j := 0; j < 6; j++ {
			vals = append(vals, fmt.Sprintf("v%d", (i*3+j*j)%25))
		}
		return idx.Bands(NewMinHash(idx.SignatureLen(), vals))
	}
	for i := range bands {
		bands[i] = sigOf(i)
		if err := idx.Add(uint32(i), bands[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Free every third slot, then refill some with other signatures.
	for i := 0; i < len(bands); i += 3 {
		idx.Remove(uint32(i))
		bands[i] = nil
	}
	for i := 0; i < len(bands); i += 6 {
		bands[i] = sigOf(100 + i)
		if err := idx.Add(uint32(i), bands[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 120; i++ {
		probe := sigOf(i)
		got := idx.AppendSlots([]uint32{NoSlot}, probe)
		if got[0] != NoSlot {
			t.Fatalf("AppendSlots overwrote dst: %v", got)
		}
		slots := slices.Clone(got[1:])
		slices.Sort(slots)
		slots = slices.Compact(slots)
		var want []uint32
		for s, bs := range bands {
			for b := range bs {
				if bs[b] == probe[b] {
					want = append(want, uint32(s))
					break
				}
			}
		}
		if !slices.Equal(slots, want) {
			t.Errorf("probe %d: AppendSlots = %v, band scan = %v", i, slots, want)
		}
	}
}

func TestLSHAddWrongLength(t *testing.T) {
	idx := NewLSHIndex(8, 4)
	if err := idx.Add(0, make([]uint64, 4)); err == nil {
		t.Error("expected error for the wrong number of band hashes")
	}
	defer func() {
		if recover() == nil {
			t.Error("Bands of a wrong-length signature did not panic")
		}
	}()
	idx.Bands(NewMinHash(16, []string{"a"}))
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

// bySlot breaks overlap ties by ascending slot.
func bySlot(a, b uint32) int { return int(a) - int(b) }

func TestInvertedIndexTopK(t *testing.T) {
	ix := NewInvertedIndex()
	ix.Add(1, setOf("a", "b", "c"))
	ix.Add(2, setOf("b", "c", "d"))
	ix.Add(3, setOf("x", "y"))
	got := ix.TopKOverlap(nil, setOf("a", "b", "c"), 2, NoSlot, bySlot)
	if len(got) != 2 {
		t.Fatalf("TopK = %v, want 2 results", got)
	}
	if got[0].Slot != 1 || got[0].Overlap != 3 {
		t.Errorf("top result = %+v, want 1/3", got[0])
	}
	if got[1].Slot != 2 || got[1].Overlap != 2 {
		t.Errorf("second result = %+v, want 2/2", got[1])
	}
	// Self exclusion.
	got = ix.TopKOverlap(nil, setOf("a", "b", "c"), 2, 1, bySlot)
	if len(got) != 1 || got[0].Slot != 2 {
		t.Errorf("TopK skipSelf = %v, want [2]", got)
	}
	// Ties follow the caller's order.
	ix.Add(0, setOf("b", "c"))
	got = ix.TopKOverlap(nil, setOf("b", "c"), 2, NoSlot, func(a, b uint32) int { return int(b) - int(a) })
	if len(got) != 2 || got[0].Slot != 2 || got[1].Slot != 1 {
		t.Errorf("TopK with descending tie-break = %v, want [2 1]", got)
	}
}

func TestInvertedIndexRemoveAndReplace(t *testing.T) {
	ix := NewInvertedIndex()
	ix.Add(4, setOf("a", "b"))
	ix.Add(4, setOf("c"))
	if n := len(ix.sets[4]); n != 1 {
		t.Errorf("set size after replace = %d, want 1", n)
	}
	if got := ix.TopKOverlap(nil, setOf("a"), 5, NoSlot, bySlot); len(got) != 0 {
		t.Errorf("old values still indexed: %v", got)
	}
	ix.Remove(4)
	if ix.Len() != 0 || ix.sets[4] != nil {
		t.Errorf("index not empty after remove: len=%d", ix.Len())
	}
	// An empty set still takes its slot.
	ix.Add(2, nil)
	if ix.Len() != 1 || ix.sets[2] == nil {
		t.Errorf("empty set not indexed: len=%d", ix.Len())
	}
	ix.Remove(2)
	if ix.Len() != 0 {
		t.Errorf("len after removing the empty set = %d, want 0", ix.Len())
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
			ix.Add(uint32(i), s)
		}
		if len(sets) == 0 {
			return true
		}
		q := sets[0]
		res := ix.TopKOverlap(nil, q, 0, NoSlot, bySlot)
		for i, r := range res {
			if r.Overlap != Overlap(q, sets[r.Slot]) {
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
		est := estimateJaccard(NewMinHash(256, a), NewMinHash(256, b))
		return math.Abs(exact-est) < 0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
