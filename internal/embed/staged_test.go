package embed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// A staged view embeds bit for bit as the model does after AddColumn of
// each staged column, leaves the model alone until Commit, and after
// Commit the model deep-equals the one built column by column, every
// token's sums included.
func TestStagedMatchesSequentialAddColumn(t *testing.T) {
	for _, dim := range []int{32, 64, 100} {
		rng := rand.New(rand.NewSource(int64(dim)))
		column := func(c int, prefix string) []string {
			var col []string
			for i := 0; i < 4+rng.Intn(12); i++ {
				switch rng.Intn(4) {
				case 0:
					col = append(col, fmt.Sprintf("both%d", rng.Intn(6)))
				case 1:
					col = append(col, fmt.Sprintf("%s%d_%d", prefix, c, i))
				case 2:
					col = append(col, fmt.Sprintf("Both%d %s%d", rng.Intn(6), prefix, rng.Intn(5)))
				default:
					col = append(col, fmt.Sprintf("both%d", c%3), fmt.Sprintf("both%d", c%3))
				}
			}
			return col
		}
		var old, fresh [][]string
		for c := 0; c < 12; c++ {
			old = append(old, column(c, "old"))
		}
		for c := 0; c < 5; c++ {
			fresh = append(fresh, column(c, "new"))
		}
		fresh = append(fresh, nil, []string{""})

		staged, seq, before := NewModel(dim), NewModel(dim), NewModel(dim)
		for _, col := range old {
			staged.AddColumn(col)
			seq.AddColumn(col)
			before.AddColumn(col)
		}
		for _, col := range fresh {
			seq.AddColumn(col)
		}
		s := staged.Stage(fresh, 1)
		r := s.Reader()
		if !reflect.DeepEqual(staged, before) {
			t.Fatalf("dim %d: Stage wrote the model", dim)
		}

		same := func(what string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dim %d %s component %d: staged %v, sequential %v", dim, what, i, got[i], want[i])
				}
			}
		}
		// Tokens only in old contexts, only in new ones, in both, and
		// in none; single and multi-token values.
		for _, tok := range []string{"old0_0", "old3", "new1_2", "new4", "both0", "both5", "both2 new1", "never-seen", "unseen value", ""} {
			same("ColumnVector("+tok+")", r.ColumnVector([]string{tok}), seq.ColumnVector([]string{tok}))
		}
		for c, col := range append(append([][]string(nil), old...), fresh...) {
			same(fmt.Sprintf("ColumnVector(column %d)", c), r.ColumnVector(col), seq.ColumnVector(col))
		}
		s.Commit()
		if !reflect.DeepEqual(staged, seq) {
			t.Fatalf("dim %d: committed model differs from the sequentially built one", dim)
		}
	}
}

// Committing a Staged after the model gained a context is a bug the
// model refuses.
func TestStagedCommitAfterModelChangedPanics(t *testing.T) {
	m := NewModel(16)
	s := m.Stage([][]string{{"a"}}, 1)
	m.AddColumn([]string{"b"})
	defer func() {
		if recover() == nil {
			t.Error("Commit of a stale Staged did not panic")
		}
	}()
	s.Commit()
}

// TestStageSameAtAnyWidth: Stage decides its tokens on a pool and D3L
// embeds through one Reader per worker, yet both answer as one
// goroutine does. Over a model that already holds columns, so that
// known tokens' thresholds move, staging at widths 1 and 4 leaves equal
// Stageds, fold counts included, and four Readers embedding the columns
// at once, a quarter each, give every vector bit for bit as one Reader
// does, with the same folds in sum.
func TestStageSameAtAnyWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	column := func(n int) []string {
		var col []string
		for i := 0; i < n; i++ {
			col = append(col, fmt.Sprintf("t%d", rng.Intn(3000)), fmt.Sprintf("w%d x%d", rng.Intn(40), rng.Intn(900)))
		}
		return col
	}
	var old, fresh [][]string
	for c := 0; c < 60; c++ {
		old = append(old, column(20+rng.Intn(60)))
	}
	for c := 0; c < 80; c++ {
		fresh = append(fresh, column(10+rng.Intn(100)))
	}
	m := NewModel(64)
	m.Stage(old, 1).Commit()
	one, four := m.Stage(fresh, 1), m.Stage(fresh, 4)
	if len(one.toks) <= 2*decideChunk {
		t.Fatalf("%d staged tokens: the pool gets too few chunks to spread", len(one.toks))
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatal("Stage at width 4 differs from width 1")
	}
	cols := append(append([][]string(nil), old...), fresh...)
	seq := one.Reader()
	want := make([][]float64, len(cols))
	for i, col := range cols {
		want[i] = seq.ColumnVector(col)
	}
	got := make([][]float64, len(cols))
	readers := make([]*Reader, 4)
	var wg sync.WaitGroup
	for w := range readers {
		readers[w] = four.Reader()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cols); i += len(readers) {
				got[i] = readers[w].ColumnVector(cols[i])
			}
		}()
	}
	wg.Wait()
	folds := 0
	for _, r := range readers {
		folds += r.e.folds
	}
	for i := range cols {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("column %d component %d: four readers %v, one %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if folds != seq.e.folds || folds == 0 {
		t.Errorf("four readers folded %d times, one %d: want equal and more than 0", folds, seq.e.folds)
	}
}
