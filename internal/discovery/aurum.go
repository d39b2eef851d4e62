package discovery

import (
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

	ekg   *metamodel.EKG
	lsh   *sketch.LSHIndex
	sigs  map[string]*sketch.MinHash
	sets  map[string]sketch.Set
	names map[string][]string // column key -> name tokens
	keyed map[string]bool     // column key -> is candidate key
	tfidf *sketch.TFIDF
}

// NewAurum creates an Aurum instance with the survey-typical defaults.
func NewAurum() *Aurum {
	return &Aurum{
		MinJaccard:      0.5,
		MinNameSim:      0.6,
		UpdateThreshold: 0.2,
		ekg:             metamodel.NewEKG(),
		lsh:             sketch.NewLSHIndex(16, 8),
		sigs:            map[string]*sketch.MinHash{},
		sets:            map[string]sketch.Set{},
		names:           map[string][]string{},
		keyed:           map[string]bool{},
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
			key := columnKey(t.Name, c.Name)
			vals := textualValues(c, 0)
			set := sketch.ToSet(vals)
			sig := sketch.NewMinHash(a.lsh.SignatureLen(), vals)
			a.sigs[key] = sig
			a.sets[key] = set
			a.names[key] = sketch.Tokenize(c.Name)
			a.keyed[key] = c.IsCandidateKey(0.9)
			if err := a.lsh.Add(key, sig); err != nil {
				return err
			}
			ref := metamodel.ColumnRef{Table: t.Name, Column: c.Name}
			a.ekg.AddColumn(ref)
			members = append(members, ref)
			nameDocs = append(nameDocs, a.names[key])
		}
		a.ekg.AddHyperedge(t.Name, members)
	}
	a.tfidf = sketch.NewTFIDF(nameDocs)
	// Materialize edges from LSH candidacy (content) and name
	// similarity.
	for key, sig := range a.sigs {
		tbl, col, err := splitKey(key)
		if err != nil {
			return err
		}
		ref := metamodel.ColumnRef{Table: tbl, Column: col}
		for _, cand := range a.lsh.Query(sig, a.MinJaccard, key) {
			ctbl, ccol, err := splitKey(cand.Key)
			if err != nil {
				return err
			}
			cref := metamodel.ColumnRef{Table: ctbl, Column: ccol}
			a.ekg.Relate(ref, cref, "content", cand.Jaccard)
		}
		a.relateByName(key, ref)
	}
	// PK-FK pass: Aurum first infers approximate key attributes, then
	// checks containment of other columns in them. Keyed columns are a
	// small fraction of all columns, so this pass stays near-linear.
	for key, isKey := range a.keyed {
		if !isKey {
			continue
		}
		tbl, col, err := splitKey(key)
		if err != nil {
			return err
		}
		ref := metamodel.ColumnRef{Table: tbl, Column: col}
		for okey := range a.sets {
			if okey == key {
				continue
			}
			otbl, ocol, err := splitKey(okey)
			if err != nil || otbl == tbl {
				continue
			}
			a.maybePKFK(key, okey, ref, metamodel.ColumnRef{Table: otbl, Column: ocol})
		}
	}
	return nil
}

// relateByName adds name-similarity edges against every other column
// with cosine above threshold. Name vocabulary is tiny compared to
// values, so a scan is acceptable (Aurum also treats schema signatures
// as cheap).
func (a *Aurum) relateByName(key string, ref metamodel.ColumnRef) {
	qv := a.tfidf.Vector(a.names[key])
	for okey, toks := range a.names {
		if okey == key {
			continue
		}
		sim := sketch.CosineSparse(qv, a.tfidf.Vector(toks))
		if sim >= a.MinNameSim {
			otbl, ocol, err := splitKey(okey)
			if err != nil {
				continue
			}
			a.ekg.Relate(ref, metamodel.ColumnRef{Table: otbl, Column: ocol}, "name", sim)
		}
	}
}

// maybePKFK detects primary-foreign key candidates: one side is an
// approximate key and the other side's values are mostly contained in
// it. Empty candidate sets never qualify.
func (a *Aurum) maybePKFK(k1, k2 string, r1, r2 metamodel.ColumnRef) {
	s1, s2 := a.sets[k1], a.sets[k2]
	if a.keyed[k1] && len(s2) > 0 && sketch.Containment(s2, s1) >= 0.8 {
		a.ekg.Relate(r1, r2, "pkfk", sketch.Containment(s2, s1))
	} else if a.keyed[k2] && len(s1) > 0 && sketch.Containment(s1, s2) >= 0.8 {
		a.ekg.Relate(r1, r2, "pkfk", sketch.Containment(s1, s2))
	}
}

// Update re-profiles a column after data change. Following Aurum's
// incremental maintenance, the signature and edges are recomputed only
// when the value drift (Jaccard distance between old and new sets)
// exceeds UpdateThreshold; otherwise the stored profile stands.
func (a *Aurum) Update(tableName string, c *table.Column) (changed bool, err error) {
	key := columnKey(tableName, c.Name)
	newVals := textualValues(c, 0)
	newSet := sketch.ToSet(newVals)
	old, ok := a.sets[key]
	if ok {
		drift := 1 - sketch.ExactJaccard(old, newSet)
		if drift <= a.UpdateThreshold {
			return false, nil
		}
	}
	ref := metamodel.ColumnRef{Table: tableName, Column: c.Name}
	a.ekg.RemoveRelations(ref)
	a.lsh.Remove(key)
	sig := sketch.NewMinHash(a.lsh.SignatureLen(), newVals)
	a.sigs[key] = sig
	a.sets[key] = newSet
	a.keyed[key] = c.IsCandidateKey(0.9)
	if err := a.lsh.Add(key, sig); err != nil {
		return false, err
	}
	for _, cand := range a.lsh.Query(sig, a.MinJaccard, key) {
		ctbl, ccol, err := splitKey(cand.Key)
		if err != nil {
			return false, err
		}
		cref := metamodel.ColumnRef{Table: ctbl, Column: ccol}
		a.ekg.Relate(ref, cref, "content", cand.Jaccard)
		a.maybePKFK(key, cand.Key, ref, cref)
	}
	a.relateByName(key, ref)
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
