package discovery

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"golake/internal/embed"
	"golake/internal/metamodel"
	"golake/internal/pool"
	"golake/internal/sketch"
	"golake/internal/table"
)

// D3L implements the five-feature discovery of Bogatu et al.
// (Sec. 6.2.1): each column pair is compared on (i) attribute-name
// q-gram similarity, (ii) instance value overlap, (iii) embedding
// cosine, (iv) value-format pattern similarity, and (v) numeric
// distribution similarity (Kolmogorov-Smirnov). The five per-feature
// distances are combined by weighted Euclidean distance in a
// 5-dimensional space; the weights are fitted offline against labeled
// related pairs. LSH indexes over names and values generate candidates, so
// queries avoid the all-pairs comparison.
type D3L struct {
	// Weights are the 5 feature coefficients (name, value, embedding,
	// format, distribution).
	Weights [5]float64
	// MaxDistance is the combined-distance cutoff for relatedness.
	MaxDistance float64

	embedModel *embed.Model
	// cat holds the columns' slots and value Sets; name q-grams and
	// format patterns are interned into its Dict.
	cat      *Catalog
	nameLSH  *sketch.LSHIndex
	valueLSH *sketch.LSHIndex
	profiles []*d3lProfile // slot -> profile; nil while not indexed
}

type d3lProfile struct {
	nameGrams sketch.Set
	values    sketch.Set
	// nameBands and valueBands are the LSH band hashes of the name and
	// value signatures, hashed from the strings once at profile time.
	nameBands  []uint64
	valueBands []uint64
	vector     []float64
	norm       float64 // sketch.Norm(vector)
	formats    sketch.Set
	numeric    sketch.CDF // the numeric sample's steps, when isNumeric
	isNumeric  bool
}

// NewD3L creates a D3L instance with uniform weights over a catalog.
func NewD3L(cat *Catalog) *D3L {
	return &D3L{
		Weights:     [5]float64{1, 1, 1, 1, 1},
		MaxDistance: 1.6,
		embedModel:  embed.NewModel(64),
		cat:         cat,
		nameLSH:     sketch.NewLSHIndex(16, 4),
		valueLSH:    sketch.NewLSHIndex(16, 8),
	}
}

// Name implements Discoverer.
func (d *D3L) Name() string { return "D3L" }

// Index implements Discoverer: profile every column on the five
// features and index names and values in LSH.
func (d *D3L) Index(tables []*table.Table) error { return d.Commit(d.Stage(tables, Profiles(tables))) }

// D3LStaged is a batch of tables profiled by D3L.Stage, waiting for
// Commit to add it to the index.
type D3LStaged struct {
	embed   *embed.Staged
	batch   []*table.Table
	listing [][]table.Profile
	cols    [][]*d3lColumn // by table, then column
}

// Stage profiles the tables' columns for D3L against the index as it
// stands, from their listing cols (Profiles): signatures, embedding
// vectors (the model extended by these columns, as it is
// corpus-trained), format patterns and numeric samples' CDF steps, all from
// the columns' strings. It writes nothing the index holds, so it may
// run while readers query the index, but not while anything writes it;
// Commit the result before the next Stage.
//
// Each table is profiled on its own, so the tables are spread over a
// pool of min(GOMAXPROCS, tables) workers, which also decides the
// embedding's tokens; one table is profiled on the calling goroutine.
// Every column lands in its place in table order, so the result is the
// same at any width.
func (d *D3L) Stage(tables []*table.Table, cols [][]table.Profile) *D3LStaged {
	s := &D3LStaged{batch: tables, listing: cols, cols: make([][]*d3lColumn, len(tables))}
	var sample [][]string
	for _, ps := range cols {
		for _, p := range ps {
			sample = append(sample, capped(p.Distinct, 200))
		}
	}
	workers := pool.Size(len(tables))
	s.embed = d.embedModel.Stage(sample, workers)
	readers := make([]*embed.Reader, workers)
	for w := range readers {
		readers[w] = s.embed.Reader()
	}
	pool.Run(workers, len(tables), func(w, i int) {
		staged := make([]*d3lColumn, len(tables[i].Columns))
		for j, c := range tables[i].Columns {
			staged[j] = d.profileColumn(c, cols[i][j].Distinct, readers[w])
		}
		s.cols[i] = staged
	})
	return s
}

// Commit adds a staged batch to the index: the embedding model gains
// its columns, the catalog its tables, each column has its names and
// formats interned, and its band hashes go into both LSH indexes.
func (d *D3L) Commit(s *D3LStaged) error {
	s.embed.Commit()
	for i, t := range s.batch {
		d.cat.add(t, s.listing[i])
	}
	for i, t := range s.batch {
		for _, col := range s.cols[i] {
			slot := d.cat.slot(t.Name, col.name)
			p := col.intern(d.cat.dict, d.cat.cols[slot].values)
			for int(slot) >= len(d.profiles) {
				d.profiles = append(d.profiles, nil)
			}
			d.profiles[slot] = p
			if err := d.nameLSH.Add(slot, p.nameBands); err != nil {
				return err
			}
			if err := d.valueLSH.Add(slot, p.valueBands); err != nil {
				return err
			}
		}
	}
	return nil
}

// TokenSumBytes is the memory the embedding model keeps in per-token
// sums.
func (d *D3L) TokenSumBytes() int64 { return d.embedModel.TokenSumBytes() }

// Remove drops every indexed column of one table from the profiles and
// both LSH indexes; the catalog keeps the table. The corpus-trained
// embedding model keeps the evicted columns' contribution until the
// next full rebuild — an accepted approximation, squared up when a full
// pass retrains it.
func (d *D3L) Remove(tableName string) {
	for _, slot := range d.cat.slotsOf(tableName) {
		if int(slot) < len(d.profiles) {
			d.profiles[slot] = nil
		}
		d.nameLSH.Remove(slot)
		d.valueLSH.Remove(slot)
	}
}

// d3lColumn is what profiling a column computes from its strings alone;
// intern turns it into the profile the index keeps.
type d3lColumn struct {
	name                    string
	grams, values, patterns []string
	nameBands, valueBands   []uint64
	vector                  []float64
	norm                    float64
	numeric                 sketch.CDF
	isNumeric               bool
}

// profileColumn profiles one column whose distinct values are vals.
// Stage passes its worker's reader of the staged embedding; a read path
// profiling a query column that is not indexed passes the model, which
// it only reads.
func (d *D3L) profileColumn(c *table.Column, vals []string, vecs embedder) *d3lColumn {
	col := &d3lColumn{
		name:   c.Name,
		grams:  sketch.QGrams(c.Name, 3),
		values: vals,
		vector: vecs.ColumnVector(capped(vals, 100)),
	}
	col.norm = sketch.Norm(col.vector)
	col.nameBands = d.nameLSH.Bands(sketch.NewMinHash(d.nameLSH.SignatureLen(), col.grams))
	col.valueBands = d.valueLSH.Bands(sketch.NewMinHash(d.valueLSH.SignatureLen(), vals))
	col.patterns = distinctPatterns(capped(vals, 200))
	if c.Kind.Numeric() {
		xs, frac := c.Floats()
		if frac > 0.5 {
			sort.Float64s(xs)
			col.numeric = sketch.NewCDF(xs)
			col.isNumeric = true
		}
	}
	return col
}

// distinctPatterns returns the distinct format patterns of vals in
// first-seen order, one string each: a Dict or Lookup hands them the
// ids it would hand the pattern of every value, so the Set is the same.
func distinctPatterns(vals []string) []string {
	var out []string
	buf := make([]byte, 0, 64)
next:
	for _, v := range vals {
		buf = sketch.AppendRegexPattern(buf[:0], v)
		for _, p := range out {
			if p == string(buf) {
				continue next
			}
		}
		out = append(out, string(buf))
	}
	return out
}

// intern builds the column's profile: Commit passes the catalog's Dict
// and Set, a read path a Lookup, which writes nothing, and its Set.
func (col *d3lColumn) intern(ids interner, values sketch.Set) *d3lProfile {
	return &d3lProfile{
		nameGrams:  ids.Set(col.grams),
		values:     values,
		nameBands:  col.nameBands,
		valueBands: col.valueBands,
		vector:     col.vector,
		norm:       col.norm,
		formats:    ids.Set(col.patterns),
		numeric:    col.numeric,
		isNumeric:  col.isNumeric,
	}
}

// d3lQuery is a query column prepared to be scored against many
// candidates: its profile, and probes over its name q-grams and its
// values.
type d3lQuery struct {
	p             *d3lProfile
	names, values sketch.Probe
}

// reset prepares p as the query column.
func (q *d3lQuery) reset(p *d3lProfile) {
	q.p = p
	q.names.Reset(p.nameGrams)
	q.values.Reset(p.values)
}

// features returns the 5 per-feature distances in [0,1] from the query
// column to b.
func (q *d3lQuery) features(b *d3lProfile) [5]float64 {
	a := q.p
	var out [5]float64
	out[0] = 1 - q.names.Jaccard(b.nameGrams)
	out[1] = 1 - q.values.Jaccard(b.values)
	cos := sketch.Cosine(a.vector, b.vector, a.norm, b.norm)
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

// distance combines a column pair's feature distances f into their
// weighted Euclidean distance, normalized by the weight mass so trained
// and uniform weights stay comparable.
func (d *D3L) distance(f [5]float64) float64 {
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

// d3lScratch is one read's working state: the prepared query column, the
// per-table scores and slot marks, and the candidate and seen lists. A
// read takes one from d3lScratches and puts it back, so readers that
// share the explorer's lock never share one.
type d3lScratch struct {
	query       d3lQuery
	acc         []d3lTableScore
	marks       []bool
	cands, seen []uint32
}

var d3lScratches = sync.Pool{New: func() any { return new(d3lScratch) }}

// zeroed returns s resized to n zero values, reusing its array when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// RelatedTables implements Discoverer: candidate columns come from the
// two LSH indexes; a candidate table's score is the mean, over query
// columns, of 1 - minimal distance to any of its columns.
func (d *D3L) RelatedTables(query *table.Table, k int) []metamodel.TableScore {
	s := d3lScratches.Get().(*d3lScratch)
	defer d3lScratches.Put(s)
	self := d.cat.tableID(query.Name)
	// acc is indexed by table id; seen lists the ids that have a score,
	// in the order they were first seen.
	s.acc = zeroed(s.acc, len(d.cat.tables))
	s.marks = zeroed(s.marks, len(d.cat.cols))
	acc, seen := s.acc, s.seen[:0]
	for ci, c := range query.Columns {
		s.query.reset(d.queryProfile(query.Name, c))
		col := int32(ci + 1)
		s.cands = d.candidates(s.cands[:0], s.marks, s.query.p)
		for _, slot := range s.cands {
			tid := d.cat.cols[slot].table
			if tid == self {
				continue
			}
			dist := d.distance(s.query.features(d.profiles[slot]))
			if dist > d.MaxDistance {
				continue
			}
			a := &acc[tid]
			switch {
			case a.col == 0:
				seen = append(seen, tid)
				a.col, a.best = col, dist
			case a.col != col:
				a.sum += 1 - a.best/d.MaxDistance
				a.col, a.best = col, dist
			case dist < a.best:
				a.best = dist
			}
		}
	}
	s.seen = seen
	out := make([]metamodel.TableScore, len(seen))
	for i, tid := range seen {
		a := &acc[tid]
		sum := a.sum + (1 - a.best/d.MaxDistance)
		out[i] = metamodel.TableScore{Table: d.cat.tables[tid].name, Score: sum / float64(len(query.Columns))}
	}
	return rankScores(out, k)
}

// d3lTableScore accumulates one candidate table's score. Each query
// column's best distance is added to sum when the next column that
// reaches the table opens (or at the end), so the sum is taken in
// query-column order.
type d3lTableScore struct {
	sum  float64
	best float64 // minimal distance in query column col
	col  int32   // 1 + the last query column that reached the table; 0: none
}

// indexed returns the profile of an indexed column, or nil.
func (d *D3L) indexed(tableName, column string) *d3lProfile {
	if slot := d.cat.slot(tableName, column); slot != sketch.NoSlot && int(slot) < len(d.profiles) {
		return d.profiles[slot]
	}
	return nil
}

// queryProfile returns the indexed profile of a query column, or
// profiles it without writing anything when its table is not indexed.
func (d *D3L) queryProfile(tableName string, c *table.Column) *d3lProfile {
	if p := d.indexed(tableName, c.Name); p != nil {
		return p
	}
	col := d.profileColumn(c, c.Profile().Distinct, d.embedModel)
	ids := d.cat.dict.Lookup()
	return col.intern(ids, ids.Set(col.values))
}

// candidates appends to dst, each once, the slots sharing an LSH bucket
// of either feature index with p. marks has one entry per slot, all
// false, and is left so.
func (d *D3L) candidates(dst []uint32, marks []bool, p *d3lProfile) []uint32 {
	all := d.nameLSH.AppendSlots(dst, p.nameBands)
	all = d.valueLSH.AppendSlots(all, p.valueBands)
	out := all[:len(dst)]
	for _, slot := range all[len(dst):] {
		if !marks[slot] {
			marks[slot] = true
			out = append(out, slot)
		}
	}
	for _, slot := range out[len(dst):] {
		marks[slot] = false
	}
	return out
}

// JoinableColumns implements JoinSearcher via the value-overlap feature
// restricted ranking.
func (d *D3L) JoinableColumns(query *table.Table, column string, k int) ([]ColumnMatch, error) {
	c, err := query.Column(column)
	if err != nil {
		return nil, err
	}
	s := d3lScratches.Get().(*d3lScratch)
	defer d3lScratches.Put(s)
	self := d.cat.tableID(query.Name)
	qp := d.queryProfile(query.Name, c)
	s.query.values.Reset(qp.values)
	s.marks = zeroed(s.marks, len(d.cat.cols))
	s.cands = d.candidates(s.cands[:0], s.marks, qp)
	var out []ColumnMatch
	for _, slot := range s.cands {
		col := d.cat.cols[slot]
		if col.table == self {
			continue
		}
		sim := s.query.values.Jaccard(d.profiles[slot].values)
		if sim <= 0 {
			continue
		}
		out = append(out, ColumnMatch{Ref: col.ref, Score: sim})
	}
	slices.SortFunc(out, func(a, b ColumnMatch) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return compareRefs(a.Ref, b.Ref)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}
