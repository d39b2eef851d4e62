package discovery

import (
	"math"

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
	// instance/schema/provenance overlap and fewer nulls.
	TaskClean
)

// Juneau implements multi-signal task-aware relatedness (Zhang & Ives):
// instance overlap, schema overlap, candidate-key match, new-attribute
// and new-instance rates, descriptive-metadata similarity, null-count
// difference, and an optional provenance similarity supplied by the
// workflow-graph layer.
type Juneau struct {
	// Task selects the signal weighting.
	Task SearchTask
	// ProvenanceSim, when non-nil, returns the workflow-graph
	// similarity of two tables in [0,1] (variable-dependency subgraph
	// similarity in the paper).
	ProvenanceSim func(a, b string) float64

	// dict interns the column names, values and metadata tokens of
	// every indexed table.
	dict    *sketch.Dict
	indexed map[string]*juneauProfile
	order   []string
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

// NewJuneau creates an instance for the given task.
func NewJuneau(task SearchTask) *Juneau {
	return &Juneau{Task: task, dict: sketch.NewDict(), indexed: map[string]*juneauProfile{}}
}

// Name implements Discoverer.
func (j *Juneau) Name() string { return "Juneau" }

// Index implements Discoverer.
func (j *Juneau) Index(tables []*table.Table) error {
	for _, t := range tables {
		p := juneauProfileOf(t, j.dict)
		j.indexed[t.Name] = p
		j.order = append(j.order, t.Name)
	}
	return nil
}

// Remove drops one table's profile.
func (j *Juneau) Remove(tableName string) {
	if _, ok := j.indexed[tableName]; !ok {
		return
	}
	delete(j.indexed, tableName)
	kept := j.order[:0]
	for _, name := range j.order {
		if name != tableName {
			kept = append(kept, name)
		}
	}
	j.order = kept
}

// juneauProfileOf profiles a table, interning through ids: the
// dictionary when indexing, a Lookup on a read path.
func juneauProfileOf(t *table.Table, ids interner) *juneauProfile {
	p := &juneauProfile{name: t.Name, rows: t.NumRows()}
	slot := make(map[string]int, len(t.Columns))
	var names []string
	var isKey []bool
	totalCells, nullCells := 0, 0
	for _, c := range t.Columns {
		i, seen := slot[c.Name]
		if !seen {
			i = len(names)
			slot[c.Name] = i
			names = append(names, c.Name)
			p.colSets = append(p.colSets, nil)
			isKey = append(isKey, false)
		}
		p.colSets[i] = ids.Set(c.DistinctSlice())
		isKey[i] = isKey[i] || c.IsCandidateKey(0.9)
		totalCells += c.Len()
		nullCells += c.NullCount()
	}
	p.colNames = ids.Set(names)
	for i, key := range isKey {
		if key {
			p.keySets = append(p.keySets, p.colSets[i])
		}
	}
	if totalCells > 0 {
		p.nullFrac = float64(nullCells) / float64(totalCells)
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
	provenanceSim   float64
}

func (j *Juneau) signalsFor(q, c *juneauProfile) juneauSignals {
	var s juneauSignals
	s.schemaOverlap = sketch.ExactJaccard(q.colNames, c.colNames)
	// Best instance overlap across shared or all column pairs.
	for _, qs := range q.colSets {
		for _, cs := range c.colSets {
			if sim := sketch.ExactJaccard(qs, cs); sim > s.instanceOverlap {
				s.instanceOverlap = sim
			}
		}
	}
	for _, qk := range q.keySets {
		for _, ck := range c.keySets {
			if sketch.Containment(qk, ck) >= 0.3 {
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
	if j.ProvenanceSim != nil {
		s.provenanceSim = j.ProvenanceSim(q.name, c.name)
	}
	return s
}

// Score combines signals per the selected task.
func (j *Juneau) score(s juneauSignals) float64 {
	switch j.Task {
	case TaskAugment:
		// Same schema, overlapping domain, more rows.
		return 0.35*s.schemaOverlap + 0.25*s.instanceOverlap +
			0.2*s.newInstanceRate + 0.1*s.metaSim + 0.1*s.provenanceSim
	case TaskFeatures:
		// Joinable keys bringing new attributes.
		return 0.35*s.keyMatch + 0.25*s.newAttrRate +
			0.2*s.instanceOverlap + 0.1*s.schemaOverlap + 0.1*s.provenanceSim
	default: // TaskClean
		// Same data, fewer nulls, shared lineage.
		return 0.3*s.instanceOverlap + 0.25*s.schemaOverlap +
			0.2*s.nullImprovement + 0.15*s.provenanceSim + 0.1*s.metaSim
	}
}

// RelatedTables implements Discoverer.
func (j *Juneau) RelatedTables(query *table.Table, k int) []metamodel.TableScore {
	qp, ok := j.indexed[query.Name]
	if !ok {
		qp = juneauProfileOf(query, j.dict.Lookup())
	}
	scores := map[string]float64{}
	for _, name := range j.order {
		if name == query.Name {
			continue
		}
		s := j.score(j.signalsFor(qp, j.indexed[name]))
		if s > 0 {
			scores[name] = s
		}
	}
	return rankTables(scores, k)
}
