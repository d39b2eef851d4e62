package embed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
		s := staged.Stage(fresh)
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
			same("ColumnVector("+tok+")", s.ColumnVector([]string{tok}), seq.ColumnVector([]string{tok}))
		}
		for c, col := range append(append([][]string(nil), old...), fresh...) {
			same(fmt.Sprintf("ColumnVector(column %d)", c), s.ColumnVector(col), seq.ColumnVector(col))
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
	s := m.Stage([][]string{{"a"}})
	m.AddColumn([]string{"b"})
	defer func() {
		if recover() == nil {
			t.Error("Commit of a stale Staged did not panic")
		}
	}()
	s.Commit()
}
