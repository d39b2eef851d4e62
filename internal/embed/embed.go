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

	contexts
	total    float64
	vecCache map[string][]float64
}

// contexts is a run of column contexts numbered from base: the model's
// own start at 0, a Staged's continue after the model's.
type contexts struct {
	base int
	// cooc[value] counts, per context (column identifier), how often
	// value appeared in that column, in ascending context order — so a
	// token's PPMI terms are summed in one fixed order and its vector
	// is the same on every call.
	cooc       map[string][]contextCount
	contextCnt []float64
	// signs holds each context's projection row as sign bits, recorded
	// once when the context is opened: signWords(Dim) words per
	// context, bit i set where component i is negative.
	signs []uint64
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
		contexts: contexts{cooc: map[string][]contextCount{}},
		vecCache: map[string][]float64{},
	}
}

// open adds one column as the next context, counting its tokens into
// c and *total. toks is scratch for the tokenizer, returned for reuse.
func (c *contexts) open(values []string, dim int, total *float64, toks []string) []string {
	i := len(c.contextCnt)
	ctx := c.base + i
	c.contextCnt = append(c.contextCnt, 0)
	c.signs = appendProjection(c.signs, ctx, dim)
	for _, v := range values {
		toks = sketch.AppendTokens(toks[:0], v)
		for _, tok := range toks {
			row := c.cooc[tok]
			if n := len(row); n > 0 && row[n-1].ctx == ctx {
				row[n-1].n++
			} else {
				c.cooc[tok] = append(row, contextCount{ctx: ctx, n: 1})
			}
			c.contextCnt[i]++
			*total++
		}
	}
	return toks
}

// AddColumn feeds one column of values into the co-occurrence model.
// Each column is one context; tokens inside values share that context.
func (m *Model) AddColumn(values []string) { m.Stage([][]string{values}).Commit() }

// Staged is a batch of columns counted against a model without changing
// it: the new contexts are numbered after the model's, and the staged
// view embeds exactly as the model will once Commit appends them. The
// staged counts and the vectors the view memoises belong to the Staged
// alone, so Stage and the view's vectors may run while Readers share
// the model. A Staged is not safe for concurrent use.
type Staged struct {
	m *Model
	contexts
	total float64
	vecs  map[string][]float64
	toks  []string
}

// Stage counts the columns' co-occurrences as new contexts of the model
// and returns the staged view. It reads the model and writes nothing;
// nothing else may write the model until the Staged is committed.
func (m *Model) Stage(columns [][]string) *Staged {
	s := &Staged{
		m: m,
		contexts: contexts{
			base: len(m.contextCnt),
			cooc: map[string][]contextCount{},
		},
		total: m.total,
		vecs:  map[string][]float64{},
	}
	for _, values := range columns {
		s.toks = s.open(values, m.Dim, &s.total, s.toks)
	}
	return s
}

// Commit appends the staged contexts to the model and installs the
// token vectors the staged view computed as the model's memo: after it,
// the model is what AddColumn of each staged column would have left,
// with those vectors memoised. It panics if the model gained contexts
// since Stage. The Staged must not be used after Commit.
func (s *Staged) Commit() {
	m := s.m
	if len(m.contextCnt) != s.base {
		panic("embed: model changed between Stage and Commit")
	}
	for tok, row := range s.cooc {
		if live, ok := m.cooc[tok]; ok {
			row = append(live, row...)
		}
		m.cooc[tok] = row
	}
	m.contextCnt = append(m.contextCnt, s.contextCnt...)
	m.signs = append(m.signs, s.signs...)
	m.total = s.total
	m.vecCache = s.vecs
}

// Vector is Model.Vector over the model with the staged columns added.
// It memoises token vectors in the Staged.
func (s *Staged) Vector(token string) []float64 {
	s.toks = sketch.AppendTokens(s.toks[:0], token)
	return vector(s, s.m.Dim, s.toks)
}

// ColumnVector is Model.ColumnVector over the model with the staged
// columns added. It memoises token vectors in the Staged.
func (s *Staged) ColumnVector(values []string) []float64 {
	var out []float64
	out, s.toks = columnVector(s, s.m.Dim, values, s.toks)
	return out
}

func (s *Staged) tokenVector(tok string) []float64 {
	if v, ok := s.vecs[tok]; ok {
		return v
	}
	v := s.m.ppmiVector(tok, &s.contexts, s.total)
	s.vecs[tok] = v
	return v
}

// Vector returns the embedding of a single token (lowercased). Unknown
// tokens get a deterministic hash-based vector so that equal unknown
// strings still match each other. The token vectors it computes are
// memoised in the model until the next AddColumn, so Vector writes the
// model; readers that share it use a Reader.
func (m *Model) Vector(token string) []float64 {
	var buf [8]string
	return vector(m, m.Dim, sketch.AppendTokens(buf[:0], token))
}

// ColumnVector embeds a whole column as the normalized mean of its
// value vectors. This is how D3L and ALITE summarize attributes. Like
// Vector, it memoises token vectors.
func (m *Model) ColumnVector(values []string) []float64 {
	var buf [8]string
	out, _ := columnVector(m, m.Dim, values, buf[:0])
	return out
}

func (m *Model) tokenVector(tok string) []float64 {
	if v, ok := m.vecCache[tok]; ok {
		return v
	}
	v := m.ppmiVector(tok, nil, m.total)
	m.vecCache[tok] = v
	return v
}

// Reader embeds with a model other readers share: it uses the token
// vectors the model has memoised but stores none, so any number of
// Readers may run at once while nothing writes the model.
type Reader struct{ m *Model }

// Reader returns a read-only view of the model.
func (m *Model) Reader() Reader { return Reader{m} }

// Vector is Model.Vector without the memo write.
func (r Reader) Vector(token string) []float64 {
	var buf [8]string
	return vector(r, r.m.Dim, sketch.AppendTokens(buf[:0], token))
}

// ColumnVector is Model.ColumnVector without the memo write.
func (r Reader) ColumnVector(values []string) []float64 {
	var buf [8]string
	out, _ := columnVector(r, r.m.Dim, values, buf[:0])
	return out
}

func (r Reader) tokenVector(tok string) []float64 {
	if v, ok := r.m.vecCache[tok]; ok {
		return v
	}
	return r.m.ppmiVector(tok, nil, r.m.total)
}

// tokenVectors is a Model, a Reader or a Staged: where vector and
// columnVector get each token's vector from.
type tokenVectors interface {
	tokenVector(tok string) []float64
}

// vector embeds one value from its tokens.
func vector(src tokenVectors, dim int, toks []string) []float64 {
	if len(toks) == 1 {
		return src.tokenVector(toks[0])
	}
	// Multi-token values average their token vectors.
	out := make([]float64, dim)
	if len(toks) == 0 {
		return out
	}
	for _, t := range toks {
		v := src.tokenVector(t)
		for i := range out {
			out[i] += v[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(toks))
	}
	return out
}

// columnVector embeds a column; toks is tokenizer scratch, returned for
// reuse.
func columnVector(src tokenVectors, dim int, values []string, toks []string) ([]float64, []string) {
	out := make([]float64, dim)
	n := 0
	for _, v := range values {
		toks = sketch.AppendTokens(toks[:0], v)
		vec := vector(src, dim, toks)
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
	return out, toks
}

// ppmiVector computes a token's vector from the model's contexts
// followed by staged's (nil for the model alone), with total the token
// count over both.
func (m *Model) ppmiVector(tok string, staged *contexts, total float64) []float64 {
	runs := [2]struct {
		c   *contexts
		row []contextCount
	}{{c: &m.contexts, row: m.cooc[tok]}}
	if staged != nil {
		runs[1].c, runs[1].row = staged, staged.cooc[tok]
	}
	if len(runs[0].row)+len(runs[1].row) == 0 || total == 0 {
		return hashVector(tok, m.Dim)
	}
	out := make([]float64, m.Dim)
	// PPMI weights folded through a deterministic random projection:
	// out += ppmi(tok, ctx) * proj(ctx), with proj(ctx) = ±scale read
	// from the context's sign bits. pmi·(−s) = −(pmi·s) exactly, so
	// adding pmi·s with its sign bit flipped where the projection is
	// negative gives the same bits, without a branch per component.
	// Staged contexts follow the model's, so terms are summed in
	// ascending context order either way.
	words := signWords(m.Dim)
	scale := 1 / math.Sqrt(float64(m.Dim))
	var rowSum float64
	for _, r := range runs {
		for _, e := range r.row {
			rowSum += e.n
		}
	}
	for _, r := range runs {
		for _, e := range r.row {
			i := e.ctx - r.c.base
			pxy := e.n / total
			px := rowSum / total
			py := r.c.contextCnt[i] / total
			if px == 0 || py == 0 {
				continue
			}
			pmi := math.Log(pxy / (px * py))
			if pmi <= 0 {
				continue
			}
			w := math.Float64bits(pmi * scale)
			signs := r.c.signs[i*words : (i+1)*words]
			for j := range out {
				out[j] += math.Float64frombits(w ^ signs[j/64]>>(j%64)<<63)
			}
		}
	}
	normalize(out)
	if isZero(out) {
		// PPMI degenerates (e.g. a token spread evenly over every
		// context, or a single-context model). Fall back to the hash
		// vector so identical values still embed identically.
		out = hashVector(tok, m.Dim)
	}
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
