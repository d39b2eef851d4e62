package discovery

import (
	"math"
	"sort"

	"golake/internal/embed"
	"golake/internal/metamodel"
	"golake/internal/sketch"
	"golake/internal/table"
)

// Relationship labels RNLIM assigns to an attribute pair.
type Relationship string

// The semantic relationships RNLIM distinguishes — the explainable
// output that sets it apart from score-only discovery (Sec. 6.2.3).
const (
	RelEquivalent Relationship = "equivalent"
	RelContained  Relationship = "contained" // A's domain inside B's
	RelOverlap    Relationship = "overlap"   // related, partial domain overlap
	RelUnrelated  Relationship = "unrelated"
)

// RNLIM implements the Relational Natural Language Inference Model
// (Ramirez et al.) under the offline substitution documented in
// DESIGN.md: the BERT representations of the two signal groups —
// (table name, attribute name) and (data type, value domain) — are
// replaced by the corpus-trained distributional embeddings, and the
// premise/hypothesis inference by explicit domain tests (containment
// both ways, Kolmogorov-Smirnov for numeric domains). What is
// preserved is RNLIM's distinguishing behaviour: it does not just rank
// candidates, it *labels the semantic relationship* of attribute
// pairs.
type RNLIM struct {
	// EquivalentSim is the combined-similarity floor for "equivalent".
	EquivalentSim float64
	// ContainmentFloor is the one-way containment floor for
	// "contained".
	ContainmentFloor float64

	model   *embed.Model
	dict    *sketch.Dict // interns column values
	columns map[metamodel.ColumnRef]*rnlimProfile
	tables  map[string][]*rnlimProfile
}

type rnlimProfile struct {
	ref       metamodel.ColumnRef
	nameVec   []float64
	values    sketch.Set
	numeric   []float64 // sorted, for KolmogorovSmirnov
	isNumeric bool
}

// NewRNLIM creates an instance with sensible defaults.
func NewRNLIM() *RNLIM {
	return &RNLIM{
		EquivalentSim:    0.7,
		ContainmentFloor: 0.8,
		model:            embed.NewModel(48),
		dict:             sketch.NewDict(),
		columns:          map[metamodel.ColumnRef]*rnlimProfile{},
		tables:           map[string][]*rnlimProfile{},
	}
}

// Name implements Discoverer.
func (r *RNLIM) Name() string { return "RNLIM" }

// Index implements Discoverer.
func (r *RNLIM) Index(tables []*table.Table) error {
	for _, t := range tables {
		for _, c := range t.Columns {
			r.model.AddColumn(capped(c.DistinctSlice(), 200))
		}
	}
	for _, t := range tables {
		for _, c := range t.Columns {
			p := r.profile(t.Name, c, r.dict, r.model)
			r.columns[p.ref] = p
			r.tables[t.Name] = append(r.tables[t.Name], p)
		}
	}
	return nil
}

// profile builds one column's profile: Index passes the dictionary and
// the model, a read path a Lookup and a Reader, which write nothing.
func (r *RNLIM) profile(tableName string, c *table.Column, ids interner, vecs embedder) *rnlimProfile {
	p := &rnlimProfile{
		ref: metamodel.ColumnRef{Table: tableName, Column: c.Name},
		// Group 1 of RNLIM's signals: table and attribute names.
		nameVec: vecs.Vector(tableName + " " + c.Name),
		values:  ids.Set(capped(c.DistinctSlice(), 500)),
	}
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

// queryProfile returns the indexed profile of a query column, or
// profiles it without writing anything when its table is not indexed.
func (r *RNLIM) queryProfile(tableName string, c *table.Column) *rnlimProfile {
	if p, ok := r.columns[metamodel.ColumnRef{Table: tableName, Column: c.Name}]; ok {
		return p
	}
	return r.profile(tableName, c, r.dict.Lookup(), r.model.Reader())
}

// Label classifies the semantic relationship of two attributes.
func (r *RNLIM) Label(a, b metamodel.ColumnRef) Relationship {
	pa, okA := r.columns[a]
	pb, okB := r.columns[b]
	if !okA || !okB {
		return RelUnrelated
	}
	return r.label(pa, pb)
}

func (r *RNLIM) label(a, b *rnlimProfile) Relationship {
	nameSim := sketch.Cosine(a.nameVec, b.nameVec)
	if nameSim < 0 {
		nameSim = 0
	}
	// Group 2: type and value-domain match.
	var domSim, contAB, contBA float64
	switch {
	case a.isNumeric && b.isNumeric:
		domSim = 1 - sketch.KolmogorovSmirnov(a.numeric, b.numeric)
		contAB, contBA = domSim, domSim
	case a.isNumeric != b.isNumeric:
		return RelUnrelated
	default:
		domSim = sketch.ExactJaccard(a.values, b.values)
		contAB = sketch.Containment(a.values, b.values)
		contBA = sketch.Containment(b.values, a.values)
	}
	combined := 0.4*nameSim + 0.6*domSim
	switch {
	// Strong domain agreement alone implies equivalence (the trained
	// classifier weighs the domain group heavily); otherwise the two
	// signal groups must agree.
	case domSim >= 0.6 || combined >= r.EquivalentSim:
		return RelEquivalent
	case contAB >= r.ContainmentFloor && contBA < r.ContainmentFloor:
		return RelContained
	case contBA >= r.ContainmentFloor && contAB < r.ContainmentFloor:
		return RelContained
	case domSim > 0.1 || (nameSim > 0.6 && domSim > 0):
		return RelOverlap
	default:
		return RelUnrelated
	}
}

// relStrength orders relationships for ranking.
func relStrength(rel Relationship) float64 {
	switch rel {
	case RelEquivalent:
		return 1.0
	case RelContained:
		return 0.75
	case RelOverlap:
		return 0.5
	default:
		return 0
	}
}

// RelatedTables implements Discoverer: a table scores by the strongest
// relationship any of its attributes holds with a query attribute.
func (r *RNLIM) RelatedTables(query *table.Table, k int) []metamodel.TableScore {
	best := map[string]float64{}
	for _, c := range query.Columns {
		qp := r.queryProfile(query.Name, c)
		for tbl, cols := range r.tables {
			if tbl == query.Name {
				continue
			}
			for _, cand := range cols {
				s := relStrength(r.label(qp, cand))
				if s > best[tbl] {
					best[tbl] = s
				}
			}
		}
	}
	for tbl, s := range best {
		if s == 0 {
			delete(best, tbl)
		}
	}
	out := RankTables(best, 0)
	// Strength ties are common (labels are discrete); break by name
	// deterministically and truncate.
	sort.SliceStable(out, func(i, j int) bool {
		if math.Abs(out[i].Score-out[j].Score) > 1e-9 {
			return out[i].Score > out[j].Score
		}
		return out[i].Table < out[j].Table
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// LabeledPairResult is one explained attribute-pair relationship.
type LabeledPairResult struct {
	A, B metamodel.ColumnRef
	Rel  Relationship
}

// ExplainTable labels every attribute pair between the query table and
// a candidate — the "explainable data exploration" output of the
// paper.
func (r *RNLIM) ExplainTable(query *table.Table, candidate string) []LabeledPairResult {
	var out []LabeledPairResult
	for _, c := range query.Columns {
		qp := r.queryProfile(query.Name, c)
		for _, cand := range r.tables[candidate] {
			if rel := r.label(qp, cand); rel != RelUnrelated {
				out = append(out, LabeledPairResult{
					A:   metamodel.ColumnRef{Table: query.Name, Column: c.Name},
					B:   cand.ref,
					Rel: rel,
				})
			}
		}
	}
	return out
}
