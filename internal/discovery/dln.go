package discovery

import (
	"math"
	"math/rand"
	"sort"

	"golake/internal/metamodel"
	"golake/internal/sketch"
	"golake/internal/table"
)

// DLN implements the Data Lake Navigator approach (Bharadwaj et al.,
// Sec. 6.2.4): relatedness at enterprise scale is learned, not
// computed — classifiers are trained on column pairs labeled from the
// JOIN clauses of historical queries (positives) and random never-joined
// pairs (negatives). Two classifiers mirror the paper: a metadata-only
// model (usable when reading data is too expensive), and an ensemble
// that adds data-sample features for textual columns.
type DLN struct {
	// SampleSize caps the number of distinct values sampled per column
	// for data features (DLN cannot scan exabyte columns).
	SampleSize int
	// Seed drives negative sampling.
	Seed int64

	dict     *sketch.Dict // interns name q-grams and sampled values
	profiles map[string]*dlnProfile
	tables   map[string][]string
	metaW    []float64 // metadata-only model weights (incl. bias at 0)
	fullW    []float64 // ensemble model weights
	trained  bool
}

type dlnProfile struct {
	key        string
	nameGrams  sketch.Set
	uniqueness float64
	isNumeric  bool
	sample     sketch.Set
}

// NewDLN creates an untrained instance.
func NewDLN() *DLN {
	return &DLN{
		SampleSize: 64,
		Seed:       1,
		dict:       sketch.NewDict(),
		profiles:   map[string]*dlnProfile{},
		tables:     map[string][]string{},
	}
}

// Name implements Discoverer.
func (d *DLN) Name() string { return "DLN" }

// Index implements Discoverer: lightweight per-column profiles only —
// the heavy lifting happens in training.
func (d *DLN) Index(tables []*table.Table) error {
	for _, t := range tables {
		for _, c := range t.Columns {
			p := &dlnProfile{
				key:       columnKey(t.Name, c.Name),
				nameGrams: d.dict.Set(sketch.QGrams(c.Name, 3)),
				isNumeric: c.Kind.Numeric(),
				sample:    d.dict.Set(textualValues(c, d.SampleSize)),
			}
			prof := table.Profile(c)
			p.uniqueness = prof.Uniqueness
			d.profiles[p.key] = p
			d.tables[t.Name] = append(d.tables[t.Name], p.key)
		}
	}
	return nil
}

// metaFeatures are the metadata-only features of a column pair.
func metaFeatures(a, b *dlnProfile) []float64 {
	typeMatch := 0.0
	if a.isNumeric == b.isNumeric {
		typeMatch = 1
	}
	return []float64{
		1, // bias
		sketch.ExactJaccard(a.nameGrams, b.nameGrams),
		1 - math.Abs(a.uniqueness-b.uniqueness),
		typeMatch,
	}
}

// fullFeatures add data-sample overlap for textual pairs (numeric pairs
// keep metadata only, per the paper's ensemble design).
func fullFeatures(a, b *dlnProfile) []float64 {
	f := metaFeatures(a, b)
	overlap := 0.0
	if !a.isNumeric && !b.isNumeric {
		overlap = sketch.ExactJaccard(a.sample, b.sample)
	}
	return append(f, overlap)
}

// Train learns both classifiers from a join query log: each entry is a
// pair of "table.column" identifiers that co-occurred in a JOIN clause.
// Negative pairs are sampled from columns never seen joined. Returns
// the number of training examples used.
func (d *DLN) Train(queryLog [][2]string) int {
	rng := rand.New(rand.NewSource(d.Seed))
	type ex struct {
		meta, full []float64
		y          float64
	}
	var data []ex
	positive := map[[2]string]bool{}
	for _, e := range queryLog {
		a, okA := d.profiles[e[0]]
		b, okB := d.profiles[e[1]]
		if !okA || !okB {
			continue
		}
		positive[[2]string{e[0], e[1]}] = true
		positive[[2]string{e[1], e[0]}] = true
		data = append(data, ex{meta: metaFeatures(a, b), full: fullFeatures(a, b), y: 1})
	}
	if len(data) == 0 {
		return 0
	}
	keys := make([]string, 0, len(d.profiles))
	for k := range d.profiles {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Sample as many negatives as positives.
	for n := 0; n < len(positive)/2; {
		a := keys[rng.Intn(len(keys))]
		b := keys[rng.Intn(len(keys))]
		if a == b || positive[[2]string{a, b}] {
			continue
		}
		pa, pb := d.profiles[a], d.profiles[b]
		data = append(data, ex{meta: metaFeatures(pa, pb), full: fullFeatures(pa, pb), y: 0})
		n++
	}
	d.metaW = trainLogistic(len(data[0].meta), 200, 0.5, func(yield func(x []float64, y float64)) {
		for _, e := range data {
			yield(e.meta, e.y)
		}
	})
	d.fullW = trainLogistic(len(data[0].full), 200, 0.5, func(yield func(x []float64, y float64)) {
		for _, e := range data {
			yield(e.full, e.y)
		}
	})
	d.trained = true
	return len(data)
}

// trainLogistic fits weights by gradient descent over a re-playable
// example stream.
func trainLogistic(dim, epochs int, lr float64, each func(yield func(x []float64, y float64))) []float64 {
	w := make([]float64, dim)
	for e := 0; e < epochs; e++ {
		each(func(x []float64, y float64) {
			z := 0.0
			for i := range w {
				z += w[i] * x[i]
			}
			pred := 1 / (1 + math.Exp(-z))
			g := pred - y
			for i := range w {
				w[i] -= lr * g * x[i]
			}
		})
	}
	return w
}

func logisticScore(w, x []float64) float64 {
	z := 0.0
	for i := range w {
		z += w[i] * x[i]
	}
	return 1 / (1 + math.Exp(-z))
}

// RelatedProbability predicts relatedness of two columns with the
// ensemble model (metadata-only for numeric pairs is already encoded in
// the features).
func (d *DLN) RelatedProbability(a, b metamodel.ColumnRef) float64 {
	pa, okA := d.profiles[columnKey(a.Table, a.Column)]
	pb, okB := d.profiles[columnKey(b.Table, b.Column)]
	if !okA || !okB || !d.trained {
		return 0
	}
	return logisticScore(d.fullW, fullFeatures(pa, pb))
}

// MetadataOnlyProbability predicts with the metadata-only classifier.
func (d *DLN) MetadataOnlyProbability(a, b metamodel.ColumnRef) float64 {
	pa, okA := d.profiles[columnKey(a.Table, a.Column)]
	pb, okB := d.profiles[columnKey(b.Table, b.Column)]
	if !okA || !okB || !d.trained {
		return 0
	}
	return logisticScore(d.metaW, metaFeatures(pa, pb))
}

// RelatedTables implements Discoverer: a table's score is the best
// ensemble probability over column pairs against the query.
func (d *DLN) RelatedTables(query *table.Table, k int) []metamodel.TableScore {
	if !d.trained {
		return nil
	}
	best := map[string]float64{}
	for _, c := range query.Columns {
		qKey := columnKey(query.Name, c.Name)
		qp, ok := d.profiles[qKey]
		if !ok {
			prof := table.Profile(c)
			ids := d.dict.Lookup()
			qp = &dlnProfile{
				key:        qKey,
				nameGrams:  ids.Set(sketch.QGrams(c.Name, 3)),
				uniqueness: prof.Uniqueness,
				isNumeric:  c.Kind.Numeric(),
				sample:     ids.Set(textualValues(c, d.SampleSize)),
			}
		}
		for tbl, keys := range d.tables {
			if tbl == query.Name {
				continue
			}
			for _, key := range keys {
				p := logisticScore(d.fullW, fullFeatures(qp, d.profiles[key]))
				if p > best[tbl] {
					best[tbl] = p
				}
			}
		}
	}
	// Keep only confident predictions.
	for tbl, p := range best {
		if p < 0.5 {
			delete(best, tbl)
		}
	}
	return rankTables(best, k)
}
