package embed

import (
	"fmt"
	"math"
	"testing"

	"golake/internal/sketch"
)

func TestSameDomainValuesEmbedClose(t *testing.T) {
	m := NewModel(64)
	colors := []string{"red", "green", "blue", "red", "green"}
	cities := []string{"berlin", "paris", "delft", "aachen"}
	// Feed several columns per domain so co-occurrence statistics form.
	for i := 0; i < 5; i++ {
		m.AddColumn(colors)
		m.AddColumn(cities)
	}
	// Mixed column to give shared context noise.
	m.AddColumn([]string{"red", "berlin"})

	sameDomain := m.Similarity("red", "green")
	crossDomain := m.Similarity("red", "paris")
	if sameDomain <= crossDomain {
		t.Errorf("same-domain sim %v should exceed cross-domain sim %v", sameDomain, crossDomain)
	}
}

func TestIdenticalValuesMaxSimilarity(t *testing.T) {
	m := NewModel(32)
	m.AddColumn([]string{"alpha", "beta"})
	if got := m.Similarity("alpha", "alpha"); math.Abs(got-1) > 1e-9 {
		t.Errorf("self similarity = %v, want 1", got)
	}
}

func TestUnknownTokensAreDeterministic(t *testing.T) {
	m := NewModel(32)
	v1 := m.Vector("never-seen-token")
	v2 := m.Vector("never-seen-token")
	if got := sketch.Cosine(v1, v2); math.Abs(got-1) > 1e-9 {
		t.Errorf("unknown token not deterministic: cos = %v", got)
	}
	other := m.Vector("different-unknown")
	if got := sketch.Cosine(v1, other); got > 0.9 {
		t.Errorf("different unknown tokens too similar: %v", got)
	}
}

func TestColumnVectorIsUnit(t *testing.T) {
	m := NewModel(48)
	m.AddColumn([]string{"a", "b", "c"})
	m.AddColumn([]string{"x", "y", "z"})
	v := m.ColumnVector([]string{"a", "b"})
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	if math.Abs(math.Sqrt(ss)-1) > 1e-9 {
		t.Errorf("column vector norm = %v, want 1", math.Sqrt(ss))
	}
}

func TestColumnVectorSimilarColumnsAlign(t *testing.T) {
	m := NewModel(64)
	fruits1 := []string{"apple", "pear", "plum", "grape"}
	fruits2 := []string{"apple", "pear", "cherry", "grape"}
	nums := []string{"one", "two", "three", "four"}
	for i := 0; i < 4; i++ {
		m.AddColumn(fruits1)
		m.AddColumn(fruits2)
		m.AddColumn(nums)
	}
	simFruit := sketch.Cosine(m.ColumnVector(fruits1), m.ColumnVector(fruits2))
	simCross := sketch.Cosine(m.ColumnVector(fruits1), m.ColumnVector(nums))
	if simFruit <= simCross {
		t.Errorf("fruit/fruit sim %v should exceed fruit/nums sim %v", simFruit, simCross)
	}
}

func TestMultiTokenValueAveraging(t *testing.T) {
	m := NewModel(32)
	m.AddColumn([]string{"new york", "new jersey"})
	m.AddColumn([]string{"red", "green", "blue"})
	v := m.Vector("new york")
	if len(v) != 32 {
		t.Fatalf("vector dim = %d, want 32", len(v))
	}
	// "new york" should be more similar to "new" than a random word is,
	// because it contains that token.
	simShared := sketch.Cosine(v, m.Vector("new"))
	simOther := sketch.Cosine(v, m.Vector("zzz-unrelated"))
	if simShared <= simOther {
		t.Errorf("shared-token sim %v should exceed unrelated sim %v", simShared, simOther)
	}
}

func TestEmptyValueVector(t *testing.T) {
	m := NewModel(16)
	v := m.Vector("  ,,  ")
	for _, x := range v {
		if x != 0 {
			t.Fatalf("vector of empty token set should be zero, got %v", v)
		}
	}
}

// A token's PPMI terms are summed in one fixed order, so recomputing
// its vector (every AddColumn drops the cache) gives the same bits.
func TestTokenVectorIsDeterministic(t *testing.T) {
	m := NewModel(64)
	for i := 0; i < 24; i++ {
		col := []string{"shared"}
		for j := 0; j <= i%5; j++ {
			col = append(col, fmt.Sprintf("v%d", i*7+j), "shared")
		}
		m.AddColumn(col)
	}
	want := m.Vector("shared")
	for round := 0; round < 50; round++ {
		m.vecCache = map[string][]float64{}
		got := m.Vector("shared")
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: component %d = %v, first call gave %v", round, i, got[i], want[i])
			}
		}
	}
}

func TestDefaultDim(t *testing.T) {
	m := NewModel(0)
	if m.Dim != 64 {
		t.Errorf("default Dim = %d, want 64", m.Dim)
	}
}
