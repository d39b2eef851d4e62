package discovery

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"golake/internal/metamodel"
	"golake/internal/sketch"
	"golake/internal/table"
	"golake/internal/workload"
)

// The kernels D3L and Juneau scored with before a read prepared its
// query column once, kept as oracles: merge-walk Jaccards and
// containments, a cosine that sums both norms beside its dot product,
// and a Kolmogorov-Smirnov walk over the two sorted samples, dividing
// out both shares at every step.

// refFeatureDistances is featureDistances as it was, over the sorted
// numeric samples as and bs of the two columns.
func refFeatureDistances(a, b *d3lProfile, as, bs []float64) [5]float64 {
	var out [5]float64
	out[0] = 1 - sketch.ExactJaccard(a.nameGrams, b.nameGrams)
	out[1] = 1 - sketch.ExactJaccard(a.values, b.values)
	cos := refCosine(a.vector, b.vector)
	if cos < 0 {
		cos = 0
	}
	out[2] = 1 - cos
	out[3] = 1 - sketch.ExactJaccard(a.formats, b.formats)
	if a.isNumeric && b.isNumeric {
		out[4] = refKolmogorovSmirnov(as, bs)
	} else if a.isNumeric != b.isNumeric {
		out[4] = 1
	} else {
		out[4] = 0.5 // both non-numeric: feature uninformative
	}
	return out
}

// refDistance is D3L.Distance as it was, over refFeatureDistances' f.
func refDistance(weights [5]float64, f [5]float64) float64 {
	var ss, wsum float64
	for i, w := range weights {
		ss += w * f[i] * f[i]
		wsum += w
	}
	if wsum == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(ss / wsum * 5)
}

func refCosine(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// refKolmogorovSmirnov is the walk over two sorted samples. The walk as
// it stood answered 1 when only as held a NaN (sort.Float64s puts NaNs
// first, and NaN <= x is false, so as never advanced) and never
// returned when bs held one; both now answer 1.
func refKolmogorovSmirnov(as, bs []float64) float64 {
	if len(as) == 0 || len(bs) == 0 {
		return 1
	}
	if math.IsNaN(as[0]) || math.IsNaN(bs[0]) {
		return 1
	}
	var i, j int
	var d float64
	for i < len(as) && j < len(bs) {
		var x float64
		if as[i] <= bs[j] {
			x = as[i]
		} else {
			x = bs[j]
		}
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

// refSample is the sorted numeric sample profileColumn took of a
// column, or nil when the column is not numeric.
func refSample(c *table.Column) []float64 {
	if !c.Kind.Numeric() {
		return nil
	}
	xs, frac := c.Floats()
	if frac <= 0.5 {
		return nil
	}
	sort.Float64s(xs)
	return xs
}

// refSamples maps each indexed column to its sample; a column name
// repeated within a table keeps its last column's, as its slot does.
func refSamples(tables []*table.Table) map[metamodel.ColumnRef][]float64 {
	out := map[metamodel.ColumnRef][]float64{}
	for _, t := range tables {
		for _, c := range t.Columns {
			out[metamodel.ColumnRef{Table: t.Name, Column: c.Name}] = refSample(c)
		}
	}
	return out
}

// querySample is the sample of the profile queryProfile returns for c.
func querySample(d *D3L, query *table.Table, c *table.Column, samples map[metamodel.ColumnRef][]float64) []float64 {
	if d.indexed(query.Name, c.Name) != nil {
		return samples[metamodel.ColumnRef{Table: query.Name, Column: c.Name}]
	}
	return refSample(c)
}

// refD3LRelatedTables is D3L.RelatedTables as it was.
func refD3LRelatedTables(d *D3L, query *table.Table, k int, samples map[metamodel.ColumnRef][]float64) []metamodel.TableScore {
	self := d.cat.tableID(query.Name)
	acc := make([]d3lTableScore, len(d.cat.tables))
	marks := make([]bool, len(d.cat.cols))
	var seen, cands []uint32
	for ci, c := range query.Columns {
		qp := d.queryProfile(query.Name, c)
		qs := querySample(d, query, c, samples)
		col := int32(ci + 1)
		cands = d.candidates(cands[:0], marks, qp)
		for _, slot := range cands {
			tid := d.cat.cols[slot].table
			if tid == self {
				continue
			}
			dist := refDistance(d.Weights, refFeatureDistances(qp, d.profiles[slot], qs, samples[d.cat.cols[slot].ref]))
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
	out := make([]metamodel.TableScore, len(seen))
	for i, tid := range seen {
		a := &acc[tid]
		sum := a.sum + (1 - a.best/d.MaxDistance)
		out[i] = metamodel.TableScore{Table: d.cat.tables[tid].name, Score: sum / float64(len(query.Columns))}
	}
	return rankScores(out, k)
}

// refD3LJoinableColumns is D3L.JoinableColumns as it was.
func refD3LJoinableColumns(d *D3L, query *table.Table, column string, k int) ([]ColumnMatch, error) {
	c, err := query.Column(column)
	if err != nil {
		return nil, err
	}
	self := d.cat.tableID(query.Name)
	qp := d.queryProfile(query.Name, c)
	var out []ColumnMatch
	for _, slot := range d.candidates(nil, make([]bool, len(d.cat.cols)), qp) {
		col := d.cat.cols[slot]
		if col.table == self {
			continue
		}
		sim := sketch.ExactJaccard(qp.values, d.profiles[slot].values)
		if sim <= 0 {
			continue
		}
		out = append(out, ColumnMatch{Ref: col.ref, Score: sim})
	}
	slices.SortFunc(out, func(a, b ColumnMatch) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return compareRefs(a.Ref, b.Ref)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// refContainment is |A∩B| / |A| by the merge walk.
func refContainment(a, b sketch.Set) float64 {
	if len(a) == 0 {
		return 0
	}
	return float64(sketch.Overlap(a, b)) / float64(len(a))
}

// refSignalsFor is Juneau's signalsFor as it was.
func refSignalsFor(q, c *juneauProfile) juneauSignals {
	var s juneauSignals
	s.schemaOverlap = sketch.ExactJaccard(q.colNames, c.colNames)
	for _, qs := range q.colSets {
		for _, cs := range c.colSets {
			if sim := sketch.ExactJaccard(qs, cs); sim > s.instanceOverlap {
				s.instanceOverlap = sim
			}
		}
	}
	for _, qk := range q.keySets {
		for _, ck := range c.keySets {
			if refContainment(qk, ck) >= 0.3 {
				s.keyMatch = 1
			}
		}
	}
	if len(c.colNames) > 0 {
		newAttrs := len(c.colNames) - sketch.Overlap(c.colNames, q.colNames)
		s.newAttrRate = float64(newAttrs) / float64(len(c.colNames))
	}
	if c.rows > q.rows {
		s.newInstanceRate = math.Min(1, float64(c.rows-q.rows)/float64(q.rows+1))
	}
	s.metaSim = sketch.ExactJaccard(q.metaToks, c.metaToks)
	s.nullImprovement = math.Max(0, q.nullFrac-c.nullFrac)
	return s
}

// refJuneauProfile is the profile Juneau read a query table with before
// it handed its listing on: an unindexed column's Set came from a
// second listing, Catalog.values over the column.
func refJuneauProfile(j *Juneau, t *table.Table) *juneauProfile {
	if p, ok := j.profiles[j.cat.tableID(t.Name)]; ok {
		return p
	}
	cols := Profiles([]*table.Table{t})[0]
	ids := j.cat.dict.Lookup()
	p := &juneauProfile{name: t.Name, rows: t.NumRows()}
	slot := make(map[string]int, len(t.Columns))
	var names []string
	var isKey []bool
	nonNull := 0
	for k, c := range t.Columns {
		i, seen := slot[c.Name]
		if !seen {
			i = len(names)
			slot[c.Name] = i
			names = append(names, c.Name)
			p.colSets = append(p.colSets, nil)
			isKey = append(isKey, false)
		}
		p.colSets[i] = j.cat.values(j.cat.slot(t.Name, c.Name), c, ids)
		isKey[i] = isKey[i] || cols[k].IsKey(c.Len(), 0.9)
		nonNull += cols[k].NonNull
	}
	p.colNames = ids.Set(names)
	for i, key := range isKey {
		if key {
			p.keySets = append(p.keySets, p.colSets[i])
		}
	}
	if cells := p.rows * len(t.Columns); cells > 0 {
		p.nullFrac = float64(cells-nonNull) / float64(cells)
	}
	var toks []string
	for _, v := range t.Meta {
		toks = append(toks, sketch.Tokenize(v)...)
	}
	p.metaToks = ids.Set(toks)
	return p
}

// refJuneauRelatedTablesFor is Juneau.RelatedTablesFor as it was.
func refJuneauRelatedTablesFor(j *Juneau, query *table.Table, task SearchTask, k int) []metamodel.TableScore {
	self := j.cat.tableID(query.Name)
	qp := refJuneauProfile(j, query)
	var out []metamodel.TableScore
	for tid, p := range j.profiles {
		if tid == self {
			continue
		}
		if s := score(refSignalsFor(qp, p), task); s > 0 {
			out = append(out, metamodel.TableScore{Table: p.name, Score: s})
		}
	}
	return rankScores(out, k)
}

// querySignals scores one candidate profile against a query profile
// through a prepared query, as RelatedTablesFor does.
func querySignals(qp, c *juneauProfile) juneauSignals {
	var q juneauQuery
	q.reset(qp)
	return q.signals(c)
}

// numericTables generates tables whose numeric columns carry what a
// sample can hold: duplicates, NaN, ±Inf, -0 beside 0, one value, no
// value at all, and numbers beside words. They share column names and
// small value vocabularies, so LSH makes them each other's candidates.
func numericTables(rng *rand.Rand, n int) []*table.Table {
	cell := func(shape int) string {
		switch shape {
		case 0: // duplicates
			return strconv.Itoa(rng.Intn(4))
		case 1: // NaN among numbers
			if rng.Intn(4) == 0 {
				return []string{"NaN", "nan"}[rng.Intn(2)]
			}
			return strconv.Itoa(rng.Intn(6))
		case 2: // infinities
			return []string{"Inf", "-Inf", "+Inf", "infinity", "1", "2.5", "-3"}[rng.Intn(7)]
		case 3: // signed zeros
			return []string{"-0", "0", "0.0", "-0.0", "1", "-1"}[rng.Intn(6)]
		case 4: // decimals
			return strconv.FormatFloat(float64(rng.Intn(40))/8-2, 'f', -1, 64)
		case 5: // numbers and words
			if rng.Intn(3) == 0 {
				return []string{"n/a", "abc", "x1"}[rng.Intn(3)]
			}
			return strconv.Itoa(rng.Intn(5))
		default: // all null
			return ""
		}
	}
	var out []*table.Table
	for i := 0; i < n; i++ {
		rows := 1 + rng.Intn(24)
		header := []string{"num_id", "measure", "amount", "note"}
		// Every shape lands in measure; one table in seven holds a
		// single value there instead of none, the rest null.
		shapes := []int{i % 7, rng.Intn(7)}
		single := i%14 == 6
		data := make([][]string, rows)
		for r := range data {
			measure := cell(shapes[0])
			if single {
				measure = ""
				if r == 0 {
					measure = strconv.Itoa(rng.Intn(3))
				}
			}
			note := ""
			if i%3 != 0 {
				note = fmt.Sprintf("w%d", rng.Intn(5))
			}
			data[r] = []string{strconv.Itoa(r), measure, cell(shapes[1]), note}
		}
		tb, err := table.FromRows(fmt.Sprintf("num%02d", i), header, data)
		if err != nil {
			panic(err)
		}
		out = append(out, tb)
	}
	return out
}

// kernelCorpus is a seeded corpus with informative and anonymous
// column names and the numeric tables, with every fifth table held out
// of the index to be queried on the read path.
func kernelCorpus(seed int64) (indexed, held []*table.Table, keys map[string]string) {
	rng := rand.New(rand.NewSource(seed))
	spec := workload.DefaultSpec()
	spec.NumTables, spec.JoinGroups, spec.RowsPerTable, spec.Seed = 30, 5, 40, seed
	named := workload.GenerateCorpus(spec)
	spec.NumTables, spec.AnonymousNames, spec.Seed = 15, true, seed+1
	anon := workload.GenerateCorpus(spec)
	keys = map[string]string{}
	var all []*table.Table
	for _, t := range named.Tables {
		keys[t.Name] = named.KeyColumn[t.Name]
		all = append(all, t)
	}
	for _, t := range anon.Tables {
		key := anon.KeyColumn[t.Name]
		t.Name = "anon_" + t.Name
		keys[t.Name] = key
		all = append(all, t)
	}
	for _, t := range numericTables(rng, 16) {
		keys[t.Name] = "measure"
		all = append(all, t)
	}
	for i, t := range all {
		if i%5 == 4 {
			held = append(held, t)
		} else {
			indexed = append(indexed, t)
		}
	}
	return indexed, held, keys
}

// Every D3L candidate of every query column, indexed or not, scores the
// distance the reference kernels give it, bit for bit, and
// RelatedTables and JoinableColumns answer as they did, on three seeds,
// under uniform and uneven weights.
func TestD3LScoresMatchReferenceKernels(t *testing.T) {
	bits := math.Float64bits
	for _, seed := range []int64{1, 7, 23} {
		indexed, held, keys := kernelCorpus(seed)
		d := NewD3L(NewCatalog())
		if err := d.Index(indexed); err != nil {
			t.Fatal(err)
		}
		samples := refSamples(indexed)
		pairs, numeric, nan := 0, 0, 0
		for _, weights := range [][5]float64{{1, 1, 1, 1, 1}, {0.3, 1.7, 0.05, 0.9, 2.2}} {
			d.Weights = weights
			var q d3lQuery
			for _, query := range append(slices.Clip(indexed), held...) {
				marks := make([]bool, len(d.cat.cols))
				for _, c := range query.Columns {
					qp := d.queryProfile(query.Name, c)
					qs := querySample(d, query, c, samples)
					q.reset(qp)
					for _, slot := range d.candidates(nil, marks, qp) {
						p := d.profiles[slot]
						want := refDistance(d.Weights, refFeatureDistances(qp, p, qs, samples[d.cat.cols[slot].ref]))
						if got := d.distance(q.features(p)); bits(got) != bits(want) {
							t.Fatalf("seed %d: %s.%s against %s: distance %v, reference %v", seed, query.Name, c.Name, d.cat.cols[slot].ref, got, want)
						}
						pairs++
						if qp.isNumeric && p.isNumeric {
							numeric++
							if ps := samples[d.cat.cols[slot].ref]; len(ps) > 0 && math.IsNaN(ps[0]) {
								nan++
							}
						}
					}
				}
				if got, want := d.RelatedTables(query, 0), refD3LRelatedTables(d, query, 0, samples); !sameScores(got, want) {
					t.Fatalf("seed %d: RelatedTables(%s) = %v, reference %v", seed, query.Name, got, want)
				}
				got, err := d.JoinableColumns(query, keys[query.Name], 0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refD3LJoinableColumns(d, query, keys[query.Name], 0)
				if err != nil {
					t.Fatal(err)
				}
				if !sameMatches(got, want) {
					t.Fatalf("seed %d: JoinableColumns(%s, %s) = %v, reference %v", seed, query.Name, keys[query.Name], got, want)
				}
			}
		}
		if numeric == 0 || pairs == numeric || nan == 0 {
			t.Fatalf("seed %d: %d candidate pairs, %d of them numeric, %d against a sample with a NaN: the corpus must hold all three", seed, pairs, numeric, nan)
		}
	}
}

// Juneau's signals against every indexed table, and its answers in all
// three tasks, are the reference's, bit for bit, for indexed queries and
// for queries it has not indexed.
func TestJuneauScoresMatchReferenceKernels(t *testing.T) {
	tasks := []SearchTask{TaskAugment, TaskFeatures, TaskClean}
	for _, seed := range []int64{1, 7, 23} {
		indexed, held, _ := kernelCorpus(seed)
		j := NewJuneau(NewCatalog(), TaskAugment)
		if err := j.Index(indexed); err != nil {
			t.Fatal(err)
		}
		keyed := 0
		for _, query := range append(slices.Clip(indexed), held...) {
			qp := refJuneauProfile(j, query)
			for _, p := range j.profiles {
				got, want := querySignals(qp, p), refSignalsFor(qp, p)
				if got != want {
					t.Fatalf("seed %d: signals %s against %s = %+v, reference %+v", seed, query.Name, p.name, got, want)
				}
				keyed += int(got.keyMatch)
				for _, task := range tasks {
					if g, w := score(got, task), score(want, task); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %d task %d: score %s against %s = %v, reference %v", seed, task, query.Name, p.name, g, w)
					}
				}
			}
			for _, task := range tasks {
				if got, want := j.RelatedTablesFor(query, task, 0), refJuneauRelatedTablesFor(j, query, task, 0); !sameScores(got, want) {
					t.Fatalf("seed %d task %d: RelatedTablesFor(%s) = %v, reference %v", seed, task, query.Name, got, want)
				}
			}
		}
		if keyed == 0 {
			t.Fatalf("seed %d: no key match anywhere: the key containment went untested", seed)
		}
	}
}

// A query table Juneau has not indexed is profiled from its one listing:
// its value Sets are the ones a second listing built, and it answers as
// it did, in every task.
func TestJuneauUnindexedQueryAnswersAsBefore(t *testing.T) {
	indexed, held, _ := kernelCorpus(5)
	j := NewJuneau(NewCatalog(), TaskClean)
	if err := j.Index(indexed); err != nil {
		t.Fatal(err)
	}
	for _, query := range held {
		if j.cat.Has(query.Name) {
			t.Fatalf("%s is indexed", query.Name)
		}
		got := j.profileOf(query, Profiles([]*table.Table{query})[0], j.cat.dict.Lookup())
		if want := refJuneauProfile(j, query); !reflect.DeepEqual(got, want) {
			t.Fatalf("profile of unindexed %s = %+v, with a second listing %+v", query.Name, got, want)
		}
		for _, task := range []SearchTask{TaskAugment, TaskFeatures, TaskClean} {
			got, want := j.RelatedTablesFor(query, task, 5), refJuneauRelatedTablesFor(j, query, task, 5)
			if len(want) == 0 || !sameScores(got, want) {
				t.Fatalf("task %d: RelatedTablesFor(unindexed %s) = %v, reference %v", task, query.Name, got, want)
			}
		}
	}
}

// A column's format Set, built from its distinct patterns in first-seen
// order, is the Set its per-value patterns gave, and interning either
// leaves a Dict with the same ids: through a Dict, as Commit interns,
// and through a Lookup, as a read path does.
func TestFormatPatternsMatchPerValuePatterns(t *testing.T) {
	indexed, held, _ := kernelCorpus(3)
	perValue := func(vals []string) []string {
		vals = capped(vals, 200)
		out := make([]string, len(vals))
		for i, v := range vals {
			out[i] = sketch.RegexPattern(v)
		}
		return out
	}
	dictA, dictB := sketch.NewDict(), sketch.NewDict()
	columns, multi := 0, 0
	for _, t2 := range append(slices.Clip(indexed), held...) {
		for _, c := range t2.Columns {
			vals := c.Profile().Distinct
			want, got := perValue(vals), distinctPatterns(capped(vals, 200))
			if len(got) > 1 {
				multi++
			}
			// A Lookup first, before either Dict has seen the patterns.
			if a, b := dictA.Lookup().Set(want), dictB.Lookup().Set(got); !slices.Equal(a, b) {
				t.Fatalf("%s.%s: Lookup Set of distinct patterns %v = %v, per value %v", t2.Name, c.Name, got, b, a)
			}
			if a, b := dictA.Set(want), dictB.Set(got); !slices.Equal(a, b) {
				t.Fatalf("%s.%s: Dict Set of distinct patterns %v = %v, per value %v", t2.Name, c.Name, got, b, a)
			}
			columns++
		}
	}
	if dictA.Len() != dictB.Len() || multi == 0 {
		t.Fatalf("dicts hold %d and %d patterns over %d columns (%d with several patterns)", dictA.Len(), dictB.Len(), columns, multi)
	}
	// Each pattern has one id in both: a Lookup of it hands out no new one.
	for _, t2 := range indexed {
		for _, c := range t2.Columns {
			for _, p := range perValue(c.Profile().Distinct) {
				a, b := dictA.Lookup().Set([]string{p}), dictB.Lookup().Set([]string{p})
				if !slices.Equal(a, b) || a[0] >= uint32(dictA.Len()) {
					t.Fatalf("pattern %q: id %v in the per-value Dict, %v in the distinct one", p, a, b)
				}
			}
		}
	}
}
