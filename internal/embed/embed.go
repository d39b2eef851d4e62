// Package embed provides similarity-preserving vector representations of
// lake values without external models. The surveyed systems lean on
// pre-trained embeddings — D3L uses word embeddings, ALITE BERT/TURL —
// none of which is available offline. This package substitutes a
// distributional model computed from the lake itself: values that
// co-occur in the same column receive nearby vectors (positive pointwise
// mutual information over column contexts, folded into a fixed dimension
// by a deterministic random projection). The substitution preserves the
// property D3L's embedding feature relies on: values drawn from the same
// semantic domain embed close together.
//
// Every token keeps its PPMI sums across commits. With n_tc the count of
// token t in context c, n_t and n_c its row and column totals and N the
// grand total,
//
//	PMI(t,c) = log(n_tc·N / (n_t·n_c)) = a_tc + L_t,
//
// where a_tc = log(n_tc/n_c) is fixed once context c is opened and
// L_t = log N − log n_t. The projected PPMI vector of t is therefore
// A_t + L_t·B_t over P_t = {c : n_tc·N > n_t·n_c}, with
// A_t = Σ round(a_tc·2³²)·σ_c kept in int64, B_t = Σ σ_c in int32 and
// σ_c the context's ±1 projection row. Membership is decided on the
// integer counts and the sums are integers, so a vector is a pure
// function of the counts: one Stage of every column and any sequence of
// Stage and Commit embed each token in the same bits. A Stage folds in
// the terms of its new columns only, and a token's vector costs O(Dim)
// plus one fold per context that has crossed the token's threshold
// since its sums were last decided.
package embed

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"golake/internal/sketch"
)

// Model maps values to dense vectors of dimension Dim. Dim must not
// change once the first column is added. Its methods only read it, so
// any number of goroutines may embed with it while nothing commits.
type Model struct {
	Dim int

	contexts
	total  int64
	tokens map[string]*token
}

// contexts is a run of column contexts numbered from base: the model's
// own start at 0, a Staged's continue after the model's.
type contexts struct {
	base int
	// n[i] is n_c, the token count of context base+i.
	n []int64
	// signs holds each context's projection row as sign bits, recorded
	// once when the context is opened: signWords(Dim) words per
	// context, bit i set where component i is negative.
	signs []uint64
}

// at returns context ctx's count and sign row; ctx is in the run.
func (c *contexts) at(ctx int32, dim int) (int64, []uint64) {
	i, w := int(ctx)-c.base, signWords(dim)
	return c.n[i], c.signs[i*w : (i+1)*w]
}

// contextCount is how often a token occurs in one context.
type contextCount struct {
	ctx, n int32
}

// share is a token's count in one context beside the context's own,
// n_tc out of n_c.
type share struct {
	ctx, n int32
	nc     int64
}

// above reports whether the context is included for a token with nt
// occurrences at total: n_tc·total > n_t·n_c, decided exactly.
func (e share) above(nt, total int64) bool {
	return compareProducts(uint64(e.n), uint64(total), uint64(nt), uint64(e.nc)) > 0
}

// compareRatio compares e's ratio n_tc/n_c with f's.
func (e share) compareRatio(f share) int {
	return compareProducts(uint64(e.n), uint64(f.nc), uint64(f.n), uint64(e.nc))
}

// byRatio orders a token's excluded contexts: ratio descending, then
// context ascending. The contexts a falling threshold includes are then
// a prefix.
func byRatio(e, f share) int {
	if c := f.compareRatio(e); c != 0 {
		return c
	}
	return cmp.Compare(e.ctx, f.ctx)
}

// token is what the model keeps of one token: its counts and its sums,
// decided at the total after the token's last context.
type token struct {
	n   int64          // n_t
	row []contextCount // every context of the token, ascending
	// a and b are A_t and B_t over the contexts included at that total.
	a []int64
	b []int32
	// out lists the contexts excluded at that total in byRatio order: as
	// the total grows they are the only ones that can cross the
	// threshold, highest ratio first.
	out []share
	// low is the included context of smallest ratio, the lowest-numbered
	// one on a tie (n == 0: none). While it stays above the threshold
	// every included context does, and a context of the row with a
	// smaller ratio is excluded.
	low share
}

// NewModel creates an empty model with the given output dimension
// (default 64 when dim <= 0).
func NewModel(dim int) *Model {
	if dim <= 0 {
		dim = 64
	}
	return &Model{Dim: dim, tokens: map[string]*token{}}
}

// TokenSumBytes is the memory the tokens' sums take: tokens × 12 bytes
// per dimension (A_t in int64, B_t in int32).
func (m *Model) TokenSumBytes() int64 { return int64(len(m.tokens)) * int64(m.Dim) * 12 }

// Staged is a batch of columns counted against a model without changing
// it: the new contexts are numbered after the model's, and the staged
// view embeds exactly as the model will once Commit appends them. The
// sums of the tokens the columns touch are copied into the Staged and
// updated there, so Stage and the view's vectors may run while readers
// share the model. A Staged is not safe for concurrent use.
type Staged struct {
	m *Model
	contexts
	total int64
	// index maps each token of the staged columns to its place in toks,
	// which lists them in the order they were first seen, and in sums,
	// which holds each as Commit installs it, rows aside.
	index map[string]int32
	toks  []staged
	sums  []token
	fresh int // tokens new to the model
	// folds counts the Dim-wide folds done for this Staged, by Stage
	// and by its view's vectors.
	folds int
	read  embedding
}

// staged is one token of the staged columns: its counts in the new
// contexts and the model's token it updates (nil for a new one).
type staged struct {
	name string
	add  []contextCount
	old  *token
}

// Stage counts the columns' co-occurrences as new contexts of the model,
// decides the sums of every token they touch and returns the staged
// view. It reads the model and writes nothing; nothing else may write
// the model until the Staged is committed.
func (m *Model) Stage(columns [][]string) *Staged {
	s := &Staged{
		m:        m,
		contexts: contexts{base: len(m.n)},
		total:    m.total,
		index:    map[string]int32{},
	}
	s.read = embedding{m: m, s: s}
	// ends[i] is the total after staged context i: a token's sums are
	// decided at the total after its last context, which is what the
	// model holds whether the columns are committed together or apart.
	ends := make([]int64, len(columns))
	var toks []string
	for i, values := range columns {
		ctx := int32(s.base + i)
		s.signs = appendProjection(s.signs, int(ctx), m.Dim)
		var nc int64
		for _, v := range values {
			toks = sketch.AppendTokens(toks[:0], v)
			for _, tok := range toks {
				k, ok := s.index[tok]
				if !ok {
					k = int32(len(s.toks))
					s.index[tok] = k
					s.toks = append(s.toks, staged{name: tok, old: m.tokens[tok]})
					if s.toks[k].old == nil {
						s.fresh++
					}
				}
				st := &s.toks[k]
				if n := len(st.add); n > 0 && st.add[n-1].ctx == ctx {
					st.add[n-1].n++
				} else {
					st.add = append(st.add, contextCount{ctx: ctx, n: 1})
				}
				nc++
			}
		}
		s.n = append(s.n, nc)
		s.total += nc
		ends[i] = s.total
	}
	// New tokens' sums go in a slab Commit installs; the copies of the
	// model's tokens go in one Commit copies back and drops.
	d := m.Dim
	freshA, freshB := make([]int64, s.fresh*d), make([]int32, s.fresh*d)
	copyA, copyB := make([]int64, (len(s.toks)-s.fresh)*d), make([]int32, (len(s.toks)-s.fresh)*d)
	s.sums = make([]token, len(s.toks))
	for k := range s.toks {
		st := &s.toks[k]
		var a []int64
		var b []int32
		if st.old == nil {
			a, b, freshA, freshB = freshA[:d:d], freshB[:d:d], freshA[d:], freshB[d:]
		} else {
			a, b, copyA, copyB = copyA[:d:d], copyB[:d:d], copyA[d:], copyB[d:]
		}
		s.decide(&s.sums[k], st, a, b, ends[int(st.add[len(st.add)-1].ctx)-s.base])
	}
	return s
}

// decide brings one staged token to nRef, the total after its last
// context, into t: its sums start as the model's, copied into a and b;
// the contexts whose side of the threshold n_t/nRef moved are folded in
// or out, and the new contexts are folded in or listed as excluded.
func (s *Staged) decide(t *token, st *staged, a []int64, b []int32, nRef int64) {
	var old token
	if st.old != nil {
		old = *st.old
	}
	t.n = old.n
	for _, e := range st.add {
		t.n += int64(e.n)
	}
	copy(a, old.a)
	copy(b, old.b)
	t.a, t.b, t.low = a, b, old.low
	var moved []share // contexts excluded by this decision
	if old.low.n > 0 && !old.low.above(t.n, nRef) {
		// The threshold rose past the lowest included ratio: walk the
		// row for the included contexts that fall out.
		t.low = share{}
		for _, c := range old.row {
			nc, _ := s.m.at(c.ctx, s.m.Dim)
			e := share{ctx: c.ctx, n: c.n, nc: nc}
			switch {
			case e.compareRatio(old.low) < 0: // excluded before
			case e.above(t.n, nRef):
				t.low = lower(t.low, e)
			default:
				s.fold(t, e, -1)
				moved = append(moved, e)
			}
		}
	}
	kept := old.out
	for i, e := range old.out {
		if !e.above(t.n, nRef) {
			kept = old.out[i:]
			break
		}
		s.fold(t, e, 1)
		t.low = lower(t.low, e)
		kept = nil
	}
	for _, c := range st.add {
		nc, _ := s.context(c.ctx)
		e := share{ctx: c.ctx, n: c.n, nc: nc}
		if e.above(t.n, nRef) {
			s.fold(t, e, 1)
			t.low = lower(t.low, e)
		} else {
			moved = append(moved, e)
		}
	}
	slices.SortFunc(moved, byRatio)
	t.out = mergeByRatio(kept, moved)
}

// lower returns whichever of low and e has the smaller ratio, the
// lower-numbered on a tie; low.n == 0 is no context.
func lower(low, e share) share {
	if c := e.compareRatio(low); low.n == 0 || c < 0 || c == 0 && e.ctx < low.ctx {
		return e
	}
	return low
}

// mergeByRatio merges two lists in byRatio order into one, nil when
// both are empty; x is returned as it is when y is empty.
func mergeByRatio(x, y []share) []share {
	switch {
	case len(y) == 0 && len(x) == 0:
		return nil
	case len(y) == 0:
		return x
	}
	out := make([]share, 0, len(x)+len(y))
	for len(x) > 0 && len(y) > 0 {
		if byRatio(x[0], y[0]) < 0 {
			out, x = append(out, x[0]), x[1:]
		} else {
			out, y = append(out, y[0]), y[1:]
		}
	}
	return append(append(out, x...), y...)
}

// context returns a context's count and sign row, from the model's run
// or the Staged's.
func (s *Staged) context(ctx int32) (int64, []uint64) {
	if int(ctx) < s.base {
		return s.m.at(ctx, s.m.Dim)
	}
	return s.at(ctx, s.m.Dim)
}

// fold adds (d = 1) or removes (d = −1) context e's term in t's sums.
func (s *Staged) fold(t *token, e share, d int32) {
	_, signs := s.context(e.ctx)
	fold(t.a, t.b, int64(d)*term(e.n, e.nc), d, signs)
	s.folds++
}

// Commit appends the staged contexts to the model and installs the
// staged tokens: a token the model held gets its updated sums copied
// over its own, so the model keeps one array per token. After it the
// model is what committing each staged column on its own would have
// left. It panics if the model gained contexts since Stage. It must
// not run while anything reads the model, and the Staged must not be
// used after it.
func (s *Staged) Commit() {
	m := s.m
	if len(m.n) != s.base {
		panic("embed: model changed between Stage and Commit")
	}
	fresh := make([]token, s.fresh)
	for k := range s.toks {
		st := &s.toks[k]
		t := s.sums[k]
		if old := st.old; old != nil {
			copy(old.a, t.a)
			copy(old.b, t.b)
			t.a, t.b = old.a, old.b
			t.row = append(old.row, st.add...)
			*old = t
			continue
		}
		t.row = st.add
		fresh[0] = t
		m.tokens[st.name] = &fresh[0]
		fresh = fresh[1:]
	}
	m.n = append(m.n, s.n...)
	m.signs = append(m.signs, s.signs...)
	m.total = s.total
}

// ColumnVector is Model.ColumnVector over the model with the staged
// columns added.
func (s *Staged) ColumnVector(values []string) []float64 {
	s.read.total = s.total
	return s.read.column(values)
}

// ColumnVector embeds a whole column as the normalized mean of its
// value vectors. This is how D3L and ALITE summarize attributes. Unknown
// tokens get a deterministic hash-based vector so that equal unknown
// strings still match each other.
func (m *Model) ColumnVector(values []string) []float64 {
	e := embedding{m: m, total: m.total}
	return e.column(values)
}

// embedding computes vectors at one total from the model's tokens or,
// for the tokens a Staged holds, from the Staged's. Its buffers are
// scratch, so it is not safe for concurrent use.
type embedding struct {
	m     *Model
	s     *Staged // nil: the model alone
	total int64
	toks  []string
	v     []float64 // one token's vector
	val   []float64 // one value's vector
	a     []int64   // sums with crossed contexts folded in
	b     []int32
}

// column embeds a column: the normalized mean of its value vectors.
func (e *embedding) column(values []string) []float64 {
	dim := e.m.Dim
	out := make([]float64, dim)
	if e.v == nil {
		buf := make([]float64, 2*dim)
		e.v, e.val = buf[:dim:dim], buf[dim:]
	}
	for _, v := range values {
		e.toks = sketch.AppendTokens(e.toks[:0], v)
		if vec, f := e.value(e.toks); vec != nil {
			vec = vec[:len(out)]
			for i := range out {
				out[i] += vec[i] * f
			}
		}
	}
	if n := len(values); n > 0 {
		for i := range out {
			out[i] /= float64(n)
		}
	}
	normalize(out)
	return out
}

// value embeds one value from its tokens, as vec·f: its token's vector,
// or the mean of its tokens' vectors (nil for none). vec is scratch,
// overwritten by the next call.
func (e *embedding) value(toks []string) (vec []float64, f float64) {
	switch len(toks) {
	case 0:
		return nil, 0
	case 1:
		return e.token(toks[0])
	}
	val := e.val
	clear(val)
	w := 1 / float64(len(toks))
	for _, t := range toks {
		tv, tf := e.token(t)
		tf *= w
		tv = tv[:len(val)]
		for i := range val {
			val[i] += tv[i] * tf
		}
	}
	return val, 1
}

// token writes tok's vector into e.v and returns it with the factor
// that makes it unit: the sums' A_t·2⁻³² + L_t·B_t with the excluded
// contexts that have crossed the threshold since folded in, or the hash
// vector for a token with no included context.
func (e *embedding) token(tok string) ([]float64, float64) {
	v := e.v
	var t *token
	if e.s != nil {
		if k, ok := e.s.index[tok]; ok {
			t = &e.s.sums[k]
		}
	}
	if t == nil {
		t = e.m.tokens[tok]
	}
	if t == nil {
		hashVector(v, tok)
		return v, 1
	}
	a, b := t.a, t.b
	for i, c := range t.out {
		if !c.above(t.n, e.total) {
			break
		}
		if i == 0 {
			e.a, e.b = append(e.a[:0], a...), append(e.b[:0], b...)
			a, b = e.a, e.b
		}
		_, signs := e.context(c.ctx)
		fold(a, b, term(c.n, c.nc), 1, signs)
		if e.s != nil {
			e.s.folds++
		}
	}
	l := math.Log(float64(e.total) / float64(t.n))
	a, b = a[:len(v)], b[:len(v)]
	var ss float64
	for j := range v {
		x := float64(a[j])*0x1p-32 + l*float64(b[j])
		v[j] = x
		ss += x * x
	}
	if ss == 0 {
		// PPMI degenerates (e.g. a token spread evenly over every
		// context, or a single-context model). Fall back to the hash
		// vector so identical values still embed identically.
		hashVector(v, tok)
		return v, 1
	}
	return v, 1 / math.Sqrt(ss)
}

// context returns a context's count and sign row.
func (e *embedding) context(ctx int32) (int64, []uint64) {
	if e.s != nil {
		return e.s.context(ctx)
	}
	return e.m.at(ctx, e.m.Dim)
}

// compareProducts compares x·y with u·v in 128 bits.
func compareProducts(x, y, u, v uint64) int {
	xh, xl := bits.Mul64(x, y)
	uh, ul := bits.Mul64(u, v)
	if c := cmp.Compare(xh, uh); c != 0 {
		return c
	}
	return cmp.Compare(xl, ul)
}

// term is a context's fixed-point part of a token's PMI,
// round(log(n_tc/n_c)·2³²).
func term(ntc int32, nc int64) int64 {
	return int64(math.Round(math.Log(float64(ntc)/float64(nc)) * (1 << 32)))
}

// fold adds w·σ to a and d·σ to b, σ the ±1 projection row signs holds.
func fold(a []int64, b []int32, w int64, d int32, signs []uint64) {
	for k, word := range signs {
		lo := k * 64
		aw := a[lo:min(lo+64, len(a))]
		bw := b[lo : lo+len(aw)]
		for j := range aw {
			neg := -int64(word >> j & 1) // −1 where σ_j = −1
			aw[j] += w ^ neg - neg
			bw[j] += d ^ int32(neg) - int32(neg)
		}
	}
}

// hashVector writes a deterministic pseudo-random unit vector derived
// from the token bytes (FNV-1a seeded) into dst, used when no
// distributional signal is available.
func hashVector(dst []float64, tok string) {
	x := uint64(14695981039346656037)
	for i := 0; i < len(tok); i++ {
		x ^= uint64(tok[i])
		x *= 1099511628211
	}
	x |= 1
	for i := range dst {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		dst[i] = float64(int64(x%2000)-1000) / 1000.0
	}
	normalize(dst)
}

// signWords is the number of uint64 sign words one projection row of
// dimension dim takes.
func signWords(dim int) int { return (dim + 63) / 64 }

// appendProjection appends the sign bits of context ctx's deterministic
// ±1 random projection row (Achlioptas-style projection): bit i is set
// where component i is negative.
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
