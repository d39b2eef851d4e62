package embed

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"golake/internal/sketch"
)

// fuzzValues are the values FuzzTokenSums builds columns from: five
// tokens, alone and in multi-token values.
var fuzzValues = []string{"a", "b", "c", "d", "e", "a b", "c c", "D"}

// tokenBatches decodes bytes into batches of columns: a byte below 0xc0
// appends fuzzValues[b % len] to the column, 0xc0–0xef ends the column
// and 0xf0 and above ends the column and the batch. Every column also
// holds the token "even" once, so over columns of one width it is
// spread evenly: an exact PMI tie with every context.
func tokenBatches(data []byte) [][][]string {
	var batches [][][]string
	var batch [][]string
	col := []string{"even"}
	for _, x := range data {
		if x < 0xc0 {
			col = append(col, fuzzValues[int(x)%len(fuzzValues)])
			continue
		}
		batch = append(batch, col)
		col = []string{"even"}
		if x >= 0xf0 {
			batches = append(batches, batch)
			batch = nil
		}
	}
	return append(batches, append(batch, col))
}

// FuzzTokenSums: a model that staged every column at once and one that
// committed the same columns batch by batch hold the same state and
// embed every token in the same bits, the last batch's staged view
// included, and every vector stays within oracleCosine of the
// row-walking oracle.
func FuzzTokenSums(f *testing.F) {
	f.Add([]byte{0, 1, 0xc0, 2, 3, 0xc0, 0, 4})
	f.Add([]byte{0, 1, 0xf0, 1, 2, 0xf0, 2, 0})                   // equal widths: "even" ties
	f.Add([]byte{0, 0, 0, 0, 0xc0, 1, 0xf0, 0, 0xc0, 0, 0, 0, 0}) // a rising threshold
	f.Add([]byte{5, 6, 7, 0xf0, 0xf0, 6, 0xc0, 1, 2, 3, 4, 0xf0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		batches := tokenBatches(data)
		var all [][]string
		for _, b := range batches {
			all = append(all, b...)
		}
		once, apart := NewModel(64), NewModel(64)
		once.Stage(all, 4).Commit()
		var last *Staged
		for _, b := range batches {
			last = apart.Stage(b, 1)
			if len(apart.n)+len(b) < len(all) {
				last.Commit()
			}
		}
		toks := []string{"a", "b", "c", "d", "e", "even", "unseen"}
		for _, tok := range toks {
			view := last.Reader().ColumnVector([]string{tok})
			if want := once.ColumnVector([]string{tok}); !sameBits(view, want) {
				t.Fatalf("%q: staged view %v, one Stage %v", tok, view, want)
			}
		}
		last.Commit()
		if !reflect.DeepEqual(once, apart) {
			t.Fatal("model committed batch by batch differs from the one staged at once")
		}
		for _, tok := range toks {
			got, want := once.Vector(tok), apart.Vector(tok)
			if !sameBits(got, want) {
				t.Fatalf("%q: one Stage %v, batch by batch %v", tok, got, want)
			}
			if c := sketch.Cosine(got, ppmiVector(once, tok)); c < oracleCosine {
				t.Fatalf("%q: cosine to the oracle %v, want >= %v", tok, c, oracleCosine)
			}
		}
	})
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// scalingColumns generates n columns of eight distinct tokens from a
// shared 50-token vocabulary plus "common" three times, so every
// column's width is 11: "common" ties with every context and stays
// excluded, and every other token's contexts stay included.
func scalingColumns(rng *rand.Rand, n int) [][]string {
	cols := make([][]string, n)
	for i := range cols {
		col := []string{"common", "common", "common"}
		for _, k := range rng.Perm(50)[:8] {
			col = append(col, fmt.Sprintf("v%d", k))
		}
		cols[i] = col
	}
	return cols
}

// Staging a fresh column costs the same Dim-wide folds in a lake of 40
// columns as in one of 340, whose token rows are 8.5 times as long:
// one per touched token and new context it is included in, plus one
// per context that crosses a threshold, counted here from the tokens'
// excluded lists before and after.
func TestStageFoldsFlatInLakeSize(t *testing.T) {
	fresh := scalingColumns(rand.New(rand.NewSource(99)), 1)
	var folds []int
	for _, size := range []int{40, 340} {
		m := NewModel(64)
		m.Stage(scalingColumns(rand.New(rand.NewSource(1)), size), 1).Commit()
		before := map[string]token{}
		for tok, tk := range m.tokens {
			before[tok] = *tk
		}
		s := m.Stage(fresh, 1)
		r := s.Reader()
		r.ColumnVector(fresh[0])
		touched, n := len(s.toks), s.folds+r.e.folds
		total := s.total
		s.Commit()
		crossings := 0
		for _, st := range fresh[0] {
			after := m.tokens[st]
			crossings += movedSide(before[st], *after)
			for _, e := range after.out {
				if e.above(after.n, total) {
					crossings++
				}
			}
		}
		if n > touched*(1+crossings) || n > touched+crossings {
			t.Errorf("%d columns: %d folds for %d touched tokens and %d crossings", size, n, touched, crossings)
		}
		folds = append(folds, n)
	}
	if folds[0] != folds[1] {
		t.Errorf("folds at 40 columns %d, at 340 %d: want equal", folds[0], folds[1])
	}
}

// movedSide counts the contexts of before's row that are excluded in
// one of before and after and included in the other.
func movedSide(before, after token) int {
	out := func(tk token, ctx int32) bool {
		for _, e := range tk.out {
			if e.ctx == ctx {
				return true
			}
		}
		return false
	}
	n := 0
	for _, e := range before.row {
		if out(before, e.ctx) != out(after, e.ctx) {
			n++
		}
	}
	return n
}

// TokenSumBytes is what a recount over the model's sums finds, after a
// seeded sequence of stages of fresh and known tokens.
func TestTokenSumBytesMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewModel(48)
	for round := 0; round < 12; round++ {
		var cols [][]string
		for c := 0; c < 1+rng.Intn(4); c++ {
			var col []string
			for i := 0; i < 3+rng.Intn(10); i++ {
				col = append(col, fmt.Sprintf("t%d", rng.Intn(20+10*round)))
			}
			cols = append(cols, col)
		}
		m.Stage(cols, 1).Commit()
		var recount int64
		for _, tk := range m.tokens {
			recount += int64(8*len(tk.a) + 4*len(tk.b))
		}
		if got := m.TokenSumBytes(); got != recount {
			t.Fatalf("round %d: TokenSumBytes %d, recount %d", round, got, recount)
		}
	}
}
