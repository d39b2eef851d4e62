package embed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"golake/internal/sketch"
)

// refProjection is the projection row of a context computed from
// scratch on every use: the oracle for the sign bits a context records.
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

// ppmiVector is the oracle for a token's vector: it walks the token's
// whole row and folds each included context's PMI, computed in floating
// point as log(p(t,c) / (p(t)·p(c))), through refProjection. Membership
// is the model's exact integer test, so the two differ only in how the
// weights are rounded.
func ppmiVector(m *Model, tok string) []float64 {
	out := make([]float64, m.Dim)
	t, known := m.tokens[tok]
	if !known || m.total == 0 {
		hashVector(out, tok)
		return out
	}
	total := float64(m.total)
	for _, e := range t.row {
		nc := m.n[e.ctx]
		if !(share{ctx: e.ctx, n: e.n, nc: nc}).above(t.n, m.total) {
			continue
		}
		pmi := math.Log((float64(e.n) / total) / ((float64(t.n) / total) * (float64(nc) / total)))
		p := refProjection(int(e.ctx), m.Dim)
		for i := range out {
			out[i] += pmi * p[i]
		}
	}
	normalize(out)
	if isZero(out) {
		hashVector(out, tok)
	}
	return out
}

func isZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

func refColumnVector(m *Model, values []string) []float64 {
	out := make([]float64, m.Dim)
	for _, v := range values {
		toks := sketch.Tokenize(v)
		vec := make([]float64, m.Dim)
		if len(toks) == 1 {
			vec = ppmiVector(m, toks[0])
		} else if len(toks) > 1 {
			for _, t := range toks {
				tv := ppmiVector(m, t)
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

// oracleCosine is how close a vector must stay to the oracle's: the
// fixed-point terms round each weight by at most 2⁻³³.
const oracleCosine = 1 - 1e-9

// ColumnVector stays within oracleCosine of the row-walking oracle on
// columns of shared, private, multi-token and unseen values, at
// dimensions below, at, between and above one 64-bit word.
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
			if isZero(want) {
				if !isZero(got) {
					t.Fatalf("dim %d column %d: got %v, oracle the zero vector", dim, ci, got)
				}
				continue
			}
			if c := cosine(got, want); c < oracleCosine {
				t.Fatalf("dim %d column %d: cosine to the oracle %v, want >= %v", dim, ci, c, oracleCosine)
			}
		}
	}
}
