package embed

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"golake/internal/sketch"
)

// AddColumn feeds one column of values into the co-occurrence model: the
// sequential reference the staged path must match. Each column is one
// context; tokens inside values share that context.
func (m *Model) AddColumn(values []string) { m.Stage([][]string{values}, 1).Commit() }

// Vector returns the embedding of a single value: its token's vector,
// or the mean of its tokens' vectors. Unknown tokens get a
// deterministic hash-based vector so that equal unknown strings still
// match each other.
func (m *Model) Vector(value string) []float64 {
	e := embedding{m: m, total: m.total, v: make([]float64, m.Dim), val: make([]float64, m.Dim)}
	out := make([]float64, m.Dim)
	vec, f := e.value(sketch.AppendTokens(nil, value))
	for i := range vec {
		out[i] = vec[i] * f
	}
	return out
}

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

	sameDomain := sketch.Cosine(m.Vector("red"), m.Vector("green"))
	crossDomain := sketch.Cosine(m.Vector("red"), m.Vector("paris"))
	if sameDomain <= crossDomain {
		t.Errorf("same-domain sim %v should exceed cross-domain sim %v", sameDomain, crossDomain)
	}
}

func TestIdenticalValuesMaxSimilarity(t *testing.T) {
	m := NewModel(32)
	m.AddColumn([]string{"alpha", "beta"})
	if got := sketch.Cosine(m.Vector("alpha"), m.Vector("alpha")); math.Abs(got-1) > 1e-9 {
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

// A token's vector is a pure function of the counts: the same bits on
// every call, from a model built column by column and from one that
// staged every column at once.
func TestTokenVectorIsDeterministic(t *testing.T) {
	seq, once := NewModel(64), NewModel(64)
	var cols [][]string
	for i := 0; i < 24; i++ {
		col := []string{"shared"}
		for j := 0; j <= i%5; j++ {
			col = append(col, fmt.Sprintf("v%d", i*7+j), "shared")
		}
		cols = append(cols, col)
		seq.AddColumn(col)
	}
	once.Stage(cols, 1).Commit()
	want := seq.Vector("shared")
	for round := 0; round < 50; round++ {
		m := seq
		if round%2 == 1 {
			m = once
		}
		got := m.Vector("shared")
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: component %d = %v, first call gave %v", round, i, got[i], want[i])
			}
		}
	}
}

// ColumnVector only reads the model, so readers sharing a model write
// no shared state: readers on several goroutines at once (run under
// -race) leave the model deep-equal to its twin after embedding known,
// multi-token and unseen values.
func TestColumnVectorWritesNothing(t *testing.T) {
	m, twin := NewModel(32), NewModel(32)
	for _, col := range [][]string{{"red", "green"}, {"berlin", "paris green"}, {"red", "red", "red", "blue"}} {
		m.AddColumn(col)
		twin.AddColumn(col)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, col := range [][]string{{"red", "paris green"}, {"never-seen"}, {"blue", "red"}} {
				if v := m.ColumnVector(col); len(v) != 32 {
					t.Errorf("ColumnVector(%q) has %d components", col, len(v))
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(m, twin) {
		t.Error("ColumnVector wrote the model")
	}
}

func TestDefaultDim(t *testing.T) {
	m := NewModel(0)
	if m.Dim != 64 {
		t.Errorf("default Dim = %d, want 64", m.Dim)
	}
}
