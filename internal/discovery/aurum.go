package discovery

import (
	"cmp"
	"slices"

	"golake/internal/metamodel"
	"golake/internal/sketch"
	"golake/internal/table"
)

// Aurum implements LSH-profiled discovery into an enterprise knowledge
// graph (Fernandez et al., Sec. 6.2.1): each column is profiled with a
// MinHash signature; signatures landing in the same LSH bucket become
// candidate pairs, which turns all-pairs O(n^2) comparison into a
// linear pass; candidate pairs with sufficient estimated Jaccard become
// weighted EKG edges; attribute-name similarity (TF-IDF cosine) and
// PK-FK candidates add further edge types. Queries run against the EKG.
type Aurum struct {
	// MinJaccard is the estimated-similarity threshold for content
	// edges.
	MinJaccard float64
	// MinNameSim is the TF-IDF cosine threshold for name edges.
	MinNameSim float64
	// UpdateThreshold is the value-drift fraction above which a
	// re-indexed column's signature and edges are recomputed.
	UpdateThreshold float64

	ekg *metamodel.EKG
	lsh *sketch.LSHIndex
	// cat holds the profiled columns' slots and value Sets; the LSH
	// index and cols are indexed by slot.
	cat   *Catalog
	cols  []aurumColumn
	tfidf *sketch.TFIDF
}

// aurumColumn is one profiled column.
type aurumColumn struct {
	sig   *sketch.MinHash
	bands []uint64 // sig's LSH band hashes
	names []string // name tokens
	keyed bool     // is candidate key
}

// NewAurum creates an Aurum instance with the survey-typical defaults.
func NewAurum() *Aurum {
	return &Aurum{
		MinJaccard:      0.5,
		MinNameSim:      0.6,
		UpdateThreshold: 0.2,
		ekg:             metamodel.NewEKG(),
		lsh:             sketch.NewLSHIndex(16, 8),
		cat:             NewCatalog(),
	}
}

// Name implements Discoverer.
func (a *Aurum) Name() string { return "Aurum" }

// EKG exposes the built knowledge graph for path queries.
func (a *Aurum) EKG() *metamodel.EKG { return a.ekg }

// Index implements Discoverer: profile columns, build the LSH index,
// then materialize EKG edges from bucket collisions — one linear pass
// over columns instead of all-pairs.
func (a *Aurum) Index(tables []*table.Table) error {
	var nameDocs [][]string
	for _, t := range tables {
		var members []metamodel.ColumnRef
		for _, c := range t.Columns {
			slot, err := a.profile(t.Name, c)
			if err != nil {
				return err
			}
			ref := a.ref(slot)
			a.ekg.AddColumn(ref)
			members = append(members, ref)
			nameDocs = append(nameDocs, a.cols[slot].names)
		}
		a.ekg.AddHyperedge(t.Name, members)
	}
	a.tfidf = sketch.NewTFIDF(nameDocs)
	// Materialize edges from LSH candidacy (content) and name
	// similarity.
	for slot := range a.cols {
		ref := a.ref(uint32(slot))
		for _, cand := range a.similar(uint32(slot)) {
			a.ekg.Relate(ref, a.ref(cand.slot), "content", cand.jaccard)
		}
		a.relateByName(uint32(slot), ref)
	}
	// PK-FK pass: Aurum first infers approximate key attributes, then
	// checks containment of other columns in them. Keyed columns are a
	// small fraction of all columns, so this pass stays near-linear.
	for slot, col := range a.cols {
		if !col.keyed {
			continue
		}
		ref := a.ref(uint32(slot))
		for other := range a.cols {
			if other == slot || a.cat.cols[other].table == a.cat.cols[slot].table {
				continue
			}
			a.maybePKFK(uint32(slot), uint32(other), ref, a.ref(uint32(other)))
		}
	}
	return nil
}

// profile (re)profiles one column into its slot and the LSH index.
func (a *Aurum) profile(tableName string, c *table.Column) (uint32, error) {
	vals := c.DistinctSlice()
	slot := a.cat.setColumn(tableName, c.Name, vals)
	for int(slot) >= len(a.cols) {
		a.cols = append(a.cols, aurumColumn{})
	}
	sig := sketch.NewMinHash(a.lsh.SignatureLen(), vals)
	a.cols[slot] = aurumColumn{
		sig:   sig,
		bands: a.lsh.Bands(sig),
		names: sketch.Tokenize(c.Name),
		keyed: c.IsCandidateKey(0.9),
	}
	return slot, a.lsh.Add(slot, a.cols[slot].bands)
}

func (a *Aurum) ref(slot uint32) metamodel.ColumnRef { return a.cat.cols[slot].ref }

// aurumCandidate is a column sharing an LSH bucket with another, with
// their estimated Jaccard similarity.
type aurumCandidate struct {
	slot    uint32
	jaccard float64
}

// similar returns the columns sharing at least one LSH bucket with the
// column in slot whose estimated Jaccard reaches MinJaccard, most
// similar first.
func (a *Aurum) similar(slot uint32) []aurumCandidate {
	cands := a.lsh.AppendSlots(nil, a.cols[slot].bands)
	slices.Sort(cands)
	var out []aurumCandidate
	for _, c := range slices.Compact(cands) {
		if c == slot {
			continue
		}
		if est := a.cols[slot].sig.Jaccard(a.cols[c].sig); est >= a.MinJaccard {
			out = append(out, aurumCandidate{slot: c, jaccard: est})
		}
	}
	slices.SortFunc(out, func(x, y aurumCandidate) int {
		if x.jaccard != y.jaccard {
			return cmp.Compare(y.jaccard, x.jaccard)
		}
		return a.cat.compare(x.slot, y.slot)
	})
	return out
}

// relateByName adds name-similarity edges against every other column
// with cosine above threshold. Name vocabulary is tiny compared to
// values, so a scan is acceptable (Aurum also treats schema signatures
// as cheap).
func (a *Aurum) relateByName(slot uint32, ref metamodel.ColumnRef) {
	qv := a.tfidf.Vector(a.cols[slot].names)
	for other, col := range a.cols {
		if uint32(other) == slot {
			continue
		}
		if sim := sketch.CosineSparse(qv, a.tfidf.Vector(col.names)); sim >= a.MinNameSim {
			a.ekg.Relate(ref, a.ref(uint32(other)), "name", sim)
		}
	}
}

// maybePKFK detects primary-foreign key candidates: one side is an
// approximate key and the other side's values are mostly contained in
// it. Empty candidate sets never qualify.
func (a *Aurum) maybePKFK(k1, k2 uint32, r1, r2 metamodel.ColumnRef) {
	c1, c2 := &a.cols[k1], &a.cols[k2]
	s1, s2 := a.cat.cols[k1].values, a.cat.cols[k2].values
	if c1.keyed && len(s2) > 0 && sketch.Containment(s2, s1) >= 0.8 {
		a.ekg.Relate(r1, r2, "pkfk", sketch.Containment(s2, s1))
	} else if c2.keyed && len(s1) > 0 && sketch.Containment(s1, s2) >= 0.8 {
		a.ekg.Relate(r1, r2, "pkfk", sketch.Containment(s1, s2))
	}
}

// Update re-profiles a column after data change. Following Aurum's
// incremental maintenance, the signature and edges are recomputed only
// when the value drift (Jaccard distance between old and new sets)
// exceeds UpdateThreshold; otherwise the stored profile stands.
func (a *Aurum) Update(tableName string, c *table.Column) (changed bool, err error) {
	if slot := a.cat.slot(tableName, c.Name); slot != sketch.NoSlot {
		drift := 1 - sketch.ExactJaccard(a.cat.cols[slot].values, a.cat.dict.Set(c.DistinctSlice()))
		if drift <= a.UpdateThreshold {
			return false, nil
		}
	}
	ref := metamodel.ColumnRef{Table: tableName, Column: c.Name}
	a.ekg.RemoveRelations(ref)
	slot, err := a.profile(tableName, c)
	if err != nil {
		return false, err
	}
	for _, cand := range a.similar(slot) {
		cref := a.ref(cand.slot)
		a.ekg.Relate(ref, cref, "content", cand.jaccard)
		a.maybePKFK(slot, cand.slot, ref, cref)
	}
	a.relateByName(slot, ref)
	return true, nil
}

// RelatedTables implements Discoverer via the EKG's table-level query.
func (a *Aurum) RelatedTables(query *table.Table, k int) []metamodel.TableScore {
	res := a.ekg.TablesRelated(query.Name, 0)
	if k > 0 && len(res) > k {
		res = res[:k]
	}
	return res
}

// JoinableColumns implements JoinSearcher using content and pkfk edges.
func (a *Aurum) JoinableColumns(query *table.Table, column string, k int) ([]ColumnMatch, error) {
	if _, err := query.Column(column); err != nil {
		return nil, err
	}
	ref := metamodel.ColumnRef{Table: query.Name, Column: column}
	var out []ColumnMatch
	seen := map[metamodel.ColumnRef]bool{}
	for _, label := range []string{"pkfk", "content"} {
		for _, e := range a.ekg.Neighbors(ref, label, 0) {
			o := metamodel.Other(e, ref)
			if seen[o] {
				continue
			}
			seen[o] = true
			out = append(out, ColumnMatch{Ref: o, Score: e.Weight})
		}
	}
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}
