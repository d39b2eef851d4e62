// Package embed provides similarity-preserving vector representations of
// lake values without external models. The surveyed systems lean on
// pre-trained embeddings — D3L uses word embeddings, PEXESO
// high-dimensional vectors, RNLIM and ALITE BERT/TURL — none of which is
// available offline. This package substitutes a distributional model
// computed from the lake itself: values that co-occur in the same column
// receive nearby vectors (positive pointwise mutual information over
// column contexts, folded into a fixed dimension by a deterministic
// random projection). The substitution preserves the property the
// discovery and integration algorithms rely on: values drawn from the
// same semantic domain embed close together.
package embed

import (
	"hash/fnv"
	"math"

	"golake/internal/sketch"
)

// Model maps values to dense vectors of dimension Dim. Dim must not
// change once the first column is added.
type Model struct {
	Dim int

	// cooc[value] counts, per context (column identifier), how often
	// value appeared in that column, in ascending context order — so a
	// token's PPMI terms are summed in one fixed order and its vector
	// is the same on every call.
	cooc       map[string][]contextCount
	contextCnt []float64
	// signs holds each context's projection row as sign bits, recorded
	// once when AddColumn opens the context: signWords(Dim) words per
	// context, bit i set where component i is negative.
	signs    []uint64
	total    float64
	vecCache map[string][]float64
}

type contextCount struct {
	ctx int
	n   float64
}

// NewModel creates an empty model with the given output dimension
// (default 64 when dim <= 0).
func NewModel(dim int) *Model {
	if dim <= 0 {
		dim = 64
	}
	return &Model{
		Dim:      dim,
		cooc:     map[string][]contextCount{},
		vecCache: map[string][]float64{},
	}
}

// AddColumn feeds one column of values into the co-occurrence model.
// Each column is one context; tokens inside values share that context.
func (m *Model) AddColumn(values []string) {
	ctx := len(m.contextCnt)
	m.contextCnt = append(m.contextCnt, 0)
	m.signs = appendProjection(m.signs, ctx, m.Dim)
	for _, v := range values {
		for _, tok := range sketch.Tokenize(v) {
			row := m.cooc[tok]
			if n := len(row); n > 0 && row[n-1].ctx == ctx {
				row[n-1].n++
			} else {
				m.cooc[tok] = append(row, contextCount{ctx: ctx, n: 1})
			}
			m.contextCnt[ctx]++
			m.total++
		}
	}
	// New data invalidates cached vectors.
	m.vecCache = map[string][]float64{}
}

// Vector returns the embedding of a single token (lowercased). Unknown
// tokens get a deterministic hash-based vector so that equal unknown
// strings still match each other.
func (m *Model) Vector(token string) []float64 {
	toks := sketch.Tokenize(token)
	if len(toks) == 1 {
		return m.tokenVector(toks[0])
	}
	// Multi-token values average their token vectors.
	out := make([]float64, m.Dim)
	if len(toks) == 0 {
		return out
	}
	for _, t := range toks {
		v := m.tokenVector(t)
		for i := range out {
			out[i] += v[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(toks))
	}
	return out
}

func (m *Model) tokenVector(tok string) []float64 {
	if v, ok := m.vecCache[tok]; ok {
		return v
	}
	row, known := m.cooc[tok]
	if !known || m.total == 0 {
		out := hashVector(tok, m.Dim)
		m.vecCache[tok] = out
		return out
	}
	out := make([]float64, m.Dim)
	// PPMI weights folded through a deterministic random projection:
	// out += ppmi(tok, ctx) * proj(ctx), with proj(ctx) = ±scale read
	// from the context's sign bits. pmi·(−s) = −(pmi·s) exactly, so
	// adding pmi·s with its sign bit flipped where the projection is
	// negative gives the same bits, without a branch per component.
	words := signWords(m.Dim)
	scale := 1 / math.Sqrt(float64(m.Dim))
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
		w := math.Float64bits(pmi * scale)
		signs := m.signs[e.ctx*words : (e.ctx+1)*words]
		for i := range out {
			out[i] += math.Float64frombits(w ^ signs[i/64]>>(i%64)<<63)
		}
	}
	normalize(out)
	if isZero(out) {
		// PPMI degenerates (e.g. a token spread evenly over every
		// context, or a single-context model). Fall back to the hash
		// vector so identical values still embed identically.
		out = hashVector(tok, m.Dim)
	}
	m.vecCache[tok] = out
	return out
}

// hashVector is a deterministic pseudo-random unit vector derived from
// the token bytes, used when no distributional signal is available.
func hashVector(tok string, dim int) []float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(tok))
	x := h.Sum64() | 1
	out := make([]float64, dim)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = float64(int64(x%2000)-1000) / 1000.0
	}
	normalize(out)
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

// ColumnVector embeds a whole column as the normalized mean of its
// value vectors. This is how D3L and ALITE summarize attributes.
func (m *Model) ColumnVector(values []string) []float64 {
	out := make([]float64, m.Dim)
	n := 0
	for _, v := range values {
		vec := m.Vector(v)
		for i := range out {
			out[i] += vec[i]
		}
		n++
	}
	if n > 0 {
		for i := range out {
			out[i] /= float64(n)
		}
	}
	normalize(out)
	return out
}

// Similarity is the cosine similarity of the two embeddings.
func (m *Model) Similarity(a, b string) float64 {
	return sketch.Cosine(m.Vector(a), m.Vector(b))
}

// signWords is the number of uint64 sign words one projection row of
// dimension dim takes.
func signWords(dim int) int { return (dim + 63) / 64 }

// appendProjection appends the sign bits of context ctx's deterministic
// ±1/sqrt(dim) random projection row (sparse Achlioptas-style
// projection): bit i is set where component i is negative.
func appendProjection(dst []uint64, ctx, dim int) []uint64 {
	n := len(dst)
	dst = append(dst, make([]uint64, signWords(dim))...)
	row := dst[n:]
	x := uint64(ctx)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	for i := 0; i < dim; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		row[i/64] |= (x & 1) << (i % 64)
	}
	return dst
}

func normalize(v []float64) {
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	if ss == 0 {
		return
	}
	n := math.Sqrt(ss)
	for i := range v {
		v[i] /= n
	}
}
