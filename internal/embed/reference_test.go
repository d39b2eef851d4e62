package embed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"golake/internal/sketch"
)

// refProjection is the projection row of a context computed from
// scratch on every use, as tokenVector once did per (token, context)
// pair: the oracle for the row AddColumn records.
func refProjection(ctx, dim int) []float64 {
	out := make([]float64, dim)
	x := uint64(ctx)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	scale := 1 / math.Sqrt(float64(dim))
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&1 == 0 {
			out[i] = scale
		} else {
			out[i] = -scale
		}
	}
	return out
}

// refTokenVector is tokenVector without the cache, folding each term
// through refProjection.
func refTokenVector(m *Model, tok string) []float64 {
	row, known := m.cooc[tok]
	if !known || m.total == 0 {
		return hashVector(tok, m.Dim)
	}
	out := make([]float64, m.Dim)
	var rowSum float64
	for _, e := range row {
		rowSum += e.n
	}
	for _, e := range row {
		pxy := e.n / m.total
		px := rowSum / m.total
		py := m.contextCnt[e.ctx] / m.total
		if px == 0 || py == 0 {
			continue
		}
		pmi := math.Log(pxy / (px * py))
		if pmi <= 0 {
			continue
		}
		p := refProjection(e.ctx, m.Dim)
		for i := range out {
			out[i] += pmi * p[i]
		}
	}
	normalize(out)
	if isZero(out) {
		out = hashVector(tok, m.Dim)
	}
	return out
}

func refColumnVector(m *Model, values []string) []float64 {
	out := make([]float64, m.Dim)
	for _, v := range values {
		toks := sketch.Tokenize(v)
		vec := make([]float64, m.Dim)
		if len(toks) == 1 {
			vec = refTokenVector(m, toks[0])
		} else if len(toks) > 1 {
			for _, t := range toks {
				tv := refTokenVector(m, t)
				for i := range vec {
					vec[i] += tv[i]
				}
			}
			for i := range vec {
				vec[i] /= float64(len(toks))
			}
		}
		for i := range out {
			out[i] += vec[i]
		}
	}
	if len(values) > 0 {
		for i := range out {
			out[i] /= float64(len(values))
		}
	}
	normalize(out)
	return out
}

// ColumnVector is bit-identical to the per-call projection on columns
// of shared, private, multi-token and unseen values, at dimensions
// below, at, between and above one 64-bit word.
func TestColumnVectorMatchesPerCallProjection(t *testing.T) {
	for _, dim := range []int{32, 48, 64, 100} {
		rng := rand.New(rand.NewSource(int64(dim)))
		m := NewModel(dim)
		var cols [][]string
		for c := 0; c < 30; c++ {
			var col []string
			for i := 0; i < 5+rng.Intn(20); i++ {
				switch rng.Intn(4) {
				case 0:
					col = append(col, fmt.Sprintf("shared%d", rng.Intn(10)))
				case 1:
					col = append(col, fmt.Sprintf("c%d_v%d", c, i))
				case 2:
					col = append(col, fmt.Sprintf("w%d w%d", rng.Intn(15), rng.Intn(15)))
				default:
					col = append(col, fmt.Sprintf("g%d", c%3))
				}
			}
			cols = append(cols, col)
			m.AddColumn(col)
		}
		cols = append(cols, []string{"never-seen", "unseen value", ""}, nil)
		for ci, col := range cols {
			got, want := m.ColumnVector(col), refColumnVector(m, col)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dim %d column %d component %d: got %v, want %v", dim, ci, i, got[i], want[i])
				}
			}
		}
	}
}
