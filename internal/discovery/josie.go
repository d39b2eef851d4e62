package discovery

import (
	"cmp"
	"slices"
	"strings"

	"golake/internal/metamodel"
	"golake/internal/sketch"
	"golake/internal/table"
)

// JOSIE implements exact top-k overlap set similarity search for
// joinable-table discovery (Zhu et al., Sec. 6.2.1): every column is a
// set of distinct values in an inverted index; a query column's top-k
// joinable columns are the indexed sets with the largest exact
// intersection — no user-supplied threshold needed. The cost model of
// the paper chooses between probing posting lists and reading candidate
// sets; here the distinguishing behaviours preserved are exactness,
// top-k semantics, and robustness to skewed posting lists (long lists
// are walked once, not per candidate).
type JOSIE struct {
	cat *Catalog
	// index holds each column's distinct set (the "set file" the cost
	// model would read), the catalog's Set, in the column's slot.
	index *sketch.InvertedIndex
}

// NewJOSIE creates an unindexed JOSIE instance over a catalog.
func NewJOSIE(cat *Catalog) *JOSIE {
	return &JOSIE{cat: cat, index: sketch.NewInvertedIndex()}
}

// Name implements Discoverer.
func (j *JOSIE) Name() string { return "JOSIE" }

// Index implements Discoverer: every column of every table becomes one
// indexed set.
func (j *JOSIE) Index(tables []*table.Table) error {
	j.Add(tables, Profiles(tables))
	return nil
}

// Add indexes tables whose columns' profiles are cols (Profiles): every
// column becomes one indexed set.
func (j *JOSIE) Add(tables []*table.Table, cols [][]table.Profile) {
	for i, t := range tables {
		for _, slot := range j.cat.tables[j.cat.add(t, cols[i])].slots {
			j.index.Add(slot, j.cat.cols[slot].values)
		}
	}
}

// Remove drops every indexed column of one table — the incremental
// eviction path, so removing a dataset does not force a corpus-wide
// re-index. The catalog keeps the table.
func (j *JOSIE) Remove(tableName string) {
	for _, slot := range j.cat.slotsOf(tableName) {
		j.index.Remove(slot)
	}
}

// JoinableColumns implements JoinSearcher: exact top-k overlap search
// for one query column.
func (j *JOSIE) JoinableColumns(query *table.Table, column string, k int) ([]ColumnMatch, error) {
	c, err := query.Column(column)
	if err != nil {
		return nil, err
	}
	self := j.cat.slot(query.Name, column)
	res := j.index.TopKOverlap(nil, j.cat.values(self, c, j.cat.dict.Lookup()), k, self, j.cat.compare)
	out := make([]ColumnMatch, 0, len(res))
	for _, r := range res {
		out = append(out, ColumnMatch{Ref: j.cat.cols[r.Slot].ref, Score: float64(r.Overlap)})
	}
	return out, nil
}

// RelatedTables implements Discoverer: a table's relatedness to the
// query is the maximum column-pair overlap, normalized by the query
// column's cardinality.
func (j *JOSIE) RelatedTables(query *table.Table, k int) []metamodel.TableScore {
	lookup := j.cat.dict.Lookup()
	return j.related(query.Name, len(query.Columns), k, func(i int) (uint32, sketch.Set) {
		self := j.cat.slot(query.Name, query.Columns[i].Name)
		return self, j.cat.values(self, query.Columns[i], lookup)
	})
}

// RelatedTablesOf is RelatedTables for a table the catalog holds.
func (j *JOSIE) RelatedTablesOf(name string, k int) []metamodel.TableScore {
	slots := j.cat.slotsOf(name)
	return j.related(name, len(slots), k, func(i int) (uint32, sketch.Set) {
		return slots[i], j.cat.cols[slots[i]].values
	})
}

// related ranks tables by their best overlap with n query columns.
func (j *JOSIE) related(name string, n, k int, column func(i int) (uint32, sketch.Set)) []metamodel.TableScore {
	selfTable := j.cat.tableID(name)
	// best is indexed by table id; seen lists the ids with a score.
	best := make([]float64, len(j.cat.tables))
	var seen []uint32
	var hits []sketch.OverlapResult
	for i := 0; i < n; i++ {
		self, qset := column(i)
		if len(qset) == 0 {
			continue
		}
		// Over-fetch: several columns of one table may hit.
		hits = j.index.TopKOverlap(hits[:0], qset, 4*k, self, j.cat.compare)
		for _, r := range hits {
			tid := j.cat.cols[r.Slot].table
			if tid == selfTable {
				continue
			}
			score := float64(r.Overlap) / float64(len(qset))
			if best[tid] == 0 {
				seen = append(seen, tid)
			}
			if score > best[tid] {
				best[tid] = score
			}
		}
	}
	out := make([]metamodel.TableScore, len(seen))
	for i, tid := range seen {
		out[i] = metamodel.TableScore{Table: j.cat.tables[tid].name, Score: best[tid]}
	}
	return rankScores(out, k)
}

// RankTables converts a score map into a list sorted by descending
// score, then name, and truncated to k (k <= 0: all).
func RankTables(scores map[string]float64, k int) []metamodel.TableScore {
	out := make([]metamodel.TableScore, 0, len(scores))
	for t, s := range scores {
		out = append(out, metamodel.TableScore{Table: t, Score: s})
	}
	return rankScores(out, k)
}

// rankScores sorts table scores by descending score, then name, and
// truncates them to k (k <= 0: all).
func rankScores(out []metamodel.TableScore, k int) []metamodel.TableScore {
	slices.SortFunc(out, func(a, b metamodel.TableScore) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return strings.Compare(a.Table, b.Table)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
