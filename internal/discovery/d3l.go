package discovery

import (
	"math"
	"slices"
	"sort"

	"golake/internal/embed"
	"golake/internal/metamodel"
	"golake/internal/sketch"
	"golake/internal/table"
)

// D3L implements the five-feature discovery of Bogatu et al.
// (Sec. 6.2.1): each column pair is compared on (i) attribute-name
// q-gram similarity, (ii) instance value overlap, (iii) embedding
// cosine, (iv) value-format pattern similarity, and (v) numeric
// distribution similarity (Kolmogorov-Smirnov). The five per-feature
// distances are combined by weighted Euclidean distance in a
// 5-dimensional space; the weights can be trained from labeled related
// pairs. LSH indexes over names and values generate candidates, so
// queries avoid the all-pairs comparison.
type D3L struct {
	// Weights are the 5 feature coefficients (name, value, embedding,
	// format, distribution).
	Weights [5]float64
	// MaxDistance is the combined-distance cutoff for relatedness.
	MaxDistance float64

	embedModel *embed.Model
	// dict interns the name q-grams, values and format patterns of
	// every indexed column.
	dict     *sketch.Dict
	nameLSH  *sketch.LSHIndex
	valueLSH *sketch.LSHIndex
	profiles map[string]*d3lProfile
	tables   map[string][]string
}

type d3lProfile struct {
	key       string
	nameGrams sketch.Set
	values    sketch.Set
	// nameSig and valueSig are the LSH signatures, hashed from the
	// strings once at profile time.
	nameSig   *sketch.MinHash
	valueSig  *sketch.MinHash
	vector    []float64
	formats   sketch.Set
	numeric   []float64 // sorted, for KolmogorovSmirnov
	isNumeric bool
}

// NewD3L creates a D3L instance with uniform weights.
func NewD3L() *D3L {
	return &D3L{
		Weights:     [5]float64{1, 1, 1, 1, 1},
		MaxDistance: 1.6,
		embedModel:  embed.NewModel(64),
		dict:        sketch.NewDict(),
		nameLSH:     sketch.NewLSHIndex(16, 4),
		valueLSH:    sketch.NewLSHIndex(16, 8),
		profiles:    map[string]*d3lProfile{},
		tables:      map[string][]string{},
	}
}

// Name implements Discoverer.
func (d *D3L) Name() string { return "D3L" }

// Index implements Discoverer: profile every column on the five
// features and index names and values in LSH.
func (d *D3L) Index(tables []*table.Table) error {
	// First pass feeds the embedding model (it is corpus-trained).
	for _, t := range tables {
		for _, c := range t.Columns {
			d.embedModel.AddColumn(textualValues(c, 200))
		}
	}
	for _, t := range tables {
		for _, c := range t.Columns {
			p := d.profile(t.Name, c, d.dict, d.embedModel)
			d.profiles[p.key] = p
			d.tables[t.Name] = append(d.tables[t.Name], p.key)
			if err := d.nameLSH.Add(p.key, p.nameSig); err != nil {
				return err
			}
			if err := d.valueLSH.Add(p.key, p.valueSig); err != nil {
				return err
			}
		}
	}
	return nil
}

// Remove drops every indexed column of one table from the profiles and
// both LSH indexes. The corpus-trained embedding model keeps the evicted
// columns' contribution until the next full rebuild — an accepted
// approximation, squared up when a full pass retrains it.
func (d *D3L) Remove(tableName string) {
	for _, key := range d.tables[tableName] {
		delete(d.profiles, key)
		d.nameLSH.Remove(key)
		d.valueLSH.Remove(key)
	}
	delete(d.tables, tableName)
}

// profile builds one column's profile. Index passes the dictionary and
// the model, which intern and memoise; a read path profiling a query
// column that is not indexed passes a Lookup and a Reader, which write
// nothing.
func (d *D3L) profile(tableName string, c *table.Column, ids interner, vecs embedder) *d3lProfile {
	vals := textualValues(c, 0)
	grams := sketch.QGrams(c.Name, 3)
	p := &d3lProfile{
		key:       columnKey(tableName, c.Name),
		nameGrams: ids.Set(grams),
		values:    ids.Set(vals),
		nameSig:   sketch.NewMinHash(d.nameLSH.SignatureLen(), grams),
		valueSig:  sketch.NewMinHash(d.valueLSH.SignatureLen(), vals),
		vector:    vecs.ColumnVector(capped(vals, 100)),
	}
	sample := capped(vals, 200)
	patterns := make([]string, len(sample))
	for i, v := range sample {
		patterns[i] = sketch.RegexPattern(v)
	}
	p.formats = ids.Set(patterns)
	if c.Kind.Numeric() {
		xs, frac := c.Floats()
		if frac > 0.5 {
			sort.Float64s(xs)
			p.numeric = xs
			p.isNumeric = true
		}
	}
	return p
}

// featureDistances returns the 5 per-feature distances in [0,1].
func featureDistances(a, b *d3lProfile) [5]float64 {
	var out [5]float64
	out[0] = 1 - sketch.ExactJaccard(a.nameGrams, b.nameGrams)
	out[1] = 1 - sketch.ExactJaccard(a.values, b.values)
	cos := sketch.Cosine(a.vector, b.vector)
	if cos < 0 {
		cos = 0
	}
	out[2] = 1 - cos
	out[3] = 1 - sketch.ExactJaccard(a.formats, b.formats)
	if a.isNumeric && b.isNumeric {
		out[4] = sketch.KolmogorovSmirnov(a.numeric, b.numeric)
	} else if a.isNumeric != b.isNumeric {
		out[4] = 1
	} else {
		out[4] = 0.5 // both non-numeric: feature uninformative
	}
	return out
}

// Distance is the combined weighted Euclidean distance between two
// indexed columns, normalized by the weight mass so trained and uniform
// weights stay comparable.
func (d *D3L) Distance(a, b *d3lProfile) float64 {
	f := featureDistances(a, b)
	var ss, wsum float64
	for i, w := range d.Weights {
		ss += w * f[i] * f[i]
		wsum += w
	}
	if wsum == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(ss / wsum * 5)
}

// LabeledPair is a training example for weight learning.
type LabeledPair struct {
	A, B    metamodel.ColumnRef
	Related bool
}

// Train fits the feature weights with logistic regression over the
// per-feature distances of labeled pairs (D3L trains a binary
// classifier and reuses its coefficients as distance weights). Pairs
// referencing unindexed columns are skipped.
func (d *D3L) Train(pairs []LabeledPair, epochs int, lr float64) int {
	type example struct {
		f [5]float64
		y float64
	}
	var data []example
	for _, p := range pairs {
		a, okA := d.profiles[columnKey(p.A.Table, p.A.Column)]
		b, okB := d.profiles[columnKey(p.B.Table, p.B.Column)]
		if !okA || !okB {
			continue
		}
		y := 0.0
		if p.Related {
			y = 1
		}
		data = append(data, example{f: featureDistances(a, b), y: y})
	}
	if len(data) == 0 {
		return 0
	}
	// Logistic regression on similarity (1 - distance) per feature.
	w := [5]float64{0, 0, 0, 0, 0}
	bias := 0.0
	for e := 0; e < epochs; e++ {
		for _, ex := range data {
			z := bias
			for i := range w {
				z += w[i] * (1 - ex.f[i])
			}
			pred := 1 / (1 + math.Exp(-z))
			g := pred - ex.y
			bias -= lr * g
			for i := range w {
				w[i] -= lr * g * (1 - ex.f[i])
			}
		}
	}
	// Coefficients become (non-negative) distance weights.
	for i := range w {
		if w[i] < 0.05 {
			w[i] = 0.05
		}
	}
	d.Weights = w
	return len(data)
}

// RelatedTables implements Discoverer: candidate columns come from the
// two LSH indexes; a candidate table's score is the mean, over query
// columns, of 1 - minimal distance to any of its columns.
func (d *D3L) RelatedTables(query *table.Table, k int) []metamodel.TableScore {
	// sums adds each table's similarities in query-column order;
	// bestPerTable is reused from one query column to the next.
	sums := map[string]float64{}
	bestPerTable := map[string]float64{}
	for _, c := range query.Columns {
		qp := d.queryProfile(query.Name, c)
		clear(bestPerTable)
		for _, key := range d.candidates(qp) {
			cp := d.profiles[key]
			tbl, _, err := splitKey(key)
			if err != nil || tbl == query.Name {
				continue
			}
			dist := d.Distance(qp, cp)
			if dist > d.MaxDistance {
				continue
			}
			cur, seen := bestPerTable[tbl]
			if !seen || dist < cur {
				bestPerTable[tbl] = dist
			}
		}
		for tbl, dist := range bestPerTable {
			sums[tbl] += 1 - dist/d.MaxDistance
		}
	}
	for tbl, sum := range sums {
		sums[tbl] = sum / float64(len(query.Columns))
	}
	return rankTables(sums, k)
}

// queryProfile returns the indexed profile of a query column, or
// profiles it without writing anything when its table is not indexed.
func (d *D3L) queryProfile(tableName string, c *table.Column) *d3lProfile {
	if p, ok := d.profiles[columnKey(tableName, c.Name)]; ok {
		return p
	}
	return d.profile(tableName, c, d.dict.Lookup(), d.embedModel.Reader())
}

// candidates unions the LSH buckets of both feature indexes, sorted.
func (d *D3L) candidates(p *d3lProfile) []string {
	var out []string
	for _, c := range d.nameLSH.Query(p.nameSig, 0, p.key) {
		out = append(out, c.Key)
	}
	for _, c := range d.valueLSH.Query(p.valueSig, 0, p.key) {
		out = append(out, c.Key)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// JoinableColumns implements JoinSearcher via the value-overlap feature
// restricted ranking.
func (d *D3L) JoinableColumns(query *table.Table, column string, k int) ([]ColumnMatch, error) {
	c, err := query.Column(column)
	if err != nil {
		return nil, err
	}
	qp := d.queryProfile(query.Name, c)
	var out []ColumnMatch
	for _, key := range d.candidates(qp) {
		cp := d.profiles[key]
		tbl, col, err := splitKey(key)
		if err != nil || tbl == query.Name {
			continue
		}
		sim := sketch.ExactJaccard(qp.values, cp.values)
		if sim <= 0 {
			continue
		}
		out = append(out, ColumnMatch{Ref: metamodel.ColumnRef{Table: tbl, Column: col}, Score: sim})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Ref.String() < out[j].Ref.String()
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

func capped(vals []string, n int) []string {
	if len(vals) > n {
		return vals[:n]
	}
	return vals
}
