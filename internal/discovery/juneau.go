package discovery

import (
	"math"
	"slices"
	"sync"

	"golake/internal/metamodel"
	"golake/internal/sketch"
	"golake/internal/table"
)

// SearchTask selects which relatedness signals Juneau combines — the
// paper keys the feature subset to the data-science task of the search
// (Sec. 6.2.2/7.1).
type SearchTask int

// The data-science search tasks Juneau supports.
const (
	// TaskAugment finds additional training/validation data: rewards
	// schema overlap plus new rows.
	TaskAugment SearchTask = iota
	// TaskFeatures finds tables contributing new attributes for
	// feature engineering: rewards key overlap plus new columns.
	TaskFeatures
	// TaskClean finds cleaner versions of the same data: rewards
	// instance/schema overlap and fewer nulls.
	TaskClean
)

// Juneau implements multi-signal task-aware relatedness (Zhang & Ives):
// instance overlap, schema overlap, candidate-key match, new-attribute
// and new-instance rates, descriptive-metadata similarity and null-count
// difference. The paper's provenance signal, a similarity of notebook
// workflow graphs, is not computed: the lake records no notebooks.
type Juneau struct {
	// Task selects the signal weighting RelatedTables uses.
	Task SearchTask

	// cat holds the tables' value Sets; column names and metadata
	// tokens are interned into its Dict.
	cat      *Catalog
	profiles map[uint32]*juneauProfile // by table id
}

type juneauProfile struct {
	name     string
	colNames sketch.Set
	// colSets holds one value set per distinct column name (a repeated
	// name keeps its last column's values); keySets holds the sets of
	// the names any of whose columns is a candidate key.
	colSets  []sketch.Set
	keySets  []sketch.Set
	rows     int
	nullFrac float64
	metaToks sketch.Set
}

// NewJuneau creates an instance for the given task over a catalog.
func NewJuneau(cat *Catalog, task SearchTask) *Juneau {
	return &Juneau{Task: task, cat: cat, profiles: map[uint32]*juneauProfile{}}
}

// Name implements Discoverer.
func (j *Juneau) Name() string { return "Juneau" }

// Index implements Discoverer.
func (j *Juneau) Index(tables []*table.Table) error {
	j.Add(tables, Profiles(tables))
	return nil
}

// Add indexes tables whose columns' profiles are cols (Profiles).
func (j *Juneau) Add(tables []*table.Table, cols [][]table.Profile) {
	for i, t := range tables {
		j.profiles[j.cat.add(t, cols[i])] = j.profileOf(t, cols[i], j.cat.dict)
	}
}

// Remove drops one table's profile; the catalog keeps the table.
func (j *Juneau) Remove(tableName string) {
	delete(j.profiles, j.cat.tableID(tableName))
}

// profileOf profiles a table whose columns' profiles are cols, interning
// through ids: the catalog's Dict when indexing, a Lookup on a read path.
func (j *Juneau) profileOf(t *table.Table, cols []table.Profile, ids interner) *juneauProfile {
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
		// A column the catalog holds keeps its Set there; another's is
		// built from its listing, not by listing it again.
		if slot := j.cat.slot(t.Name, c.Name); slot != sketch.NoSlot {
			p.colSets[i] = j.cat.cols[slot].values
		} else {
			p.colSets[i] = ids.Set(cols[k].Distinct)
		}
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

// signals computes the raw relatedness signals between query and
// candidate profiles.
type juneauSignals struct {
	instanceOverlap float64 // best column-pair Jaccard
	schemaOverlap   float64 // column-name Jaccard
	keyMatch        float64 // 1 if a candidate key pair overlaps
	newAttrRate     float64 // candidate attrs absent from query
	newInstanceRate float64 // candidate rows beyond matched values
	metaSim         float64 // descriptive metadata Jaccard
	nullImprovement float64 // positive when candidate has fewer nulls
}

// juneauQuery is a query table's profile prepared to be scored against
// every indexed table: one probe over each of its column Sets and one
// over each of its key Sets. A read takes one from juneauQueries and
// puts it back, so readers that share the explorer's lock never share
// one.
type juneauQuery struct {
	p          *juneauProfile
	cols, keys []sketch.Probe
}

var juneauQueries = sync.Pool{New: func() any { return new(juneauQuery) }}

// reset prepares p as the query.
func (q *juneauQuery) reset(p *juneauProfile) {
	q.p = p
	q.cols = probes(q.cols, p.colSets)
	q.keys = probes(q.keys, p.keySets)
}

// probes returns ps resized to one probe per Set, each reset to its Set.
func probes(ps []sketch.Probe, sets []sketch.Set) []sketch.Probe {
	ps = slices.Grow(ps[:0], len(sets))[:len(sets)]
	for i, s := range sets {
		ps[i].Reset(s)
	}
	return ps
}

// signals computes the raw relatedness signals between the query and a
// candidate profile.
func (q *juneauQuery) signals(c *juneauProfile) juneauSignals {
	var s juneauSignals
	s.schemaOverlap = sketch.ExactJaccard(q.p.colNames, c.colNames)
	// Best instance overlap across shared or all column pairs.
	for i := range q.cols {
		for _, cs := range c.colSets {
			if sim := q.cols[i].Jaccard(cs); sim > s.instanceOverlap {
				s.instanceOverlap = sim
			}
		}
	}
	for i := range q.keys {
		for _, ck := range c.keySets {
			if q.keys[i].Containment(ck) >= 0.3 {
				s.keyMatch = 1
			}
		}
	}
	if len(c.colNames) > 0 {
		newAttrs := len(c.colNames) - sketch.Overlap(c.colNames, q.p.colNames)
		s.newAttrRate = float64(newAttrs) / float64(len(c.colNames))
	}
	if c.rows > q.p.rows {
		s.newInstanceRate = math.Min(1, float64(c.rows-q.p.rows)/float64(q.p.rows+1))
	}
	s.metaSim = sketch.ExactJaccard(q.p.metaToks, c.metaToks)
	s.nullImprovement = math.Max(0, q.p.nullFrac-c.nullFrac)
	return s
}

// score combines signals per task.
func score(s juneauSignals, task SearchTask) float64 {
	switch task {
	case TaskAugment:
		// Same schema, overlapping domain, more rows.
		return 0.35*s.schemaOverlap + 0.25*s.instanceOverlap +
			0.2*s.newInstanceRate + 0.1*s.metaSim
	case TaskFeatures:
		// Joinable keys bringing new attributes.
		return 0.35*s.keyMatch + 0.25*s.newAttrRate +
			0.2*s.instanceOverlap + 0.1*s.schemaOverlap
	default: // TaskClean
		// Same data, fewer nulls.
		return 0.3*s.instanceOverlap + 0.25*s.schemaOverlap +
			0.2*s.nullImprovement + 0.1*s.metaSim
	}
}

// RelatedTables implements Discoverer: RelatedTablesFor under j.Task.
func (j *Juneau) RelatedTables(query *table.Table, k int) []metamodel.TableScore {
	return j.RelatedTablesFor(query, j.Task, k)
}

// RelatedTablesFor ranks the indexed tables under task's signal
// weighting. The profiles do not depend on the task, so one index
// answers all three.
func (j *Juneau) RelatedTablesFor(query *table.Table, task SearchTask, k int) []metamodel.TableScore {
	self := j.cat.tableID(query.Name)
	qp, ok := j.profiles[self]
	if !ok {
		qp = j.profileOf(query, Profiles([]*table.Table{query})[0], j.cat.dict.Lookup())
	}
	q := juneauQueries.Get().(*juneauQuery)
	defer juneauQueries.Put(q)
	q.reset(qp)
	var out []metamodel.TableScore
	for tid, p := range j.profiles {
		if tid == self {
			continue
		}
		if s := score(q.signals(p), task); s > 0 {
			out = append(out, metamodel.TableScore{Table: p.name, Score: s})
		}
	}
	return rankScores(out, k)
}
