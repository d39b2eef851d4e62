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
	// dict interns every indexed value; the index holds ids.
	dict *sketch.Dict
	// index holds each column's distinct set (the "set file" the cost
	// model would read) in the column's slot.
	index *sketch.InvertedIndex
	slots *columnSlots
	// MaxValuesPerColumn caps indexed set size (0 = unlimited).
	MaxValuesPerColumn int
}

// NewJOSIE creates an unindexed JOSIE instance.
func NewJOSIE() *JOSIE {
	return &JOSIE{
		dict:  sketch.NewDict(),
		index: sketch.NewInvertedIndex(),
		slots: newColumnSlots(),
	}
}

// Name implements Discoverer.
func (j *JOSIE) Name() string { return "JOSIE" }

// Index implements Discoverer: every column of every table becomes one
// indexed set.
func (j *JOSIE) Index(tables []*table.Table) error {
	for _, t := range tables {
		for _, c := range t.Columns {
			set := j.dict.Set(textualValues(c, j.MaxValuesPerColumn))
			j.index.Add(j.slots.add(t.Name, c.Name), set)
		}
	}
	return nil
}

// Remove drops every indexed column of one table — the incremental
// eviction path, so removing a dataset does not force a corpus-wide
// re-index.
func (j *JOSIE) Remove(tableName string) {
	for _, slot := range j.slots.removeTable(tableName) {
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
	self := j.slots.slot(query.Name, column)
	res := j.index.TopKOverlap(nil, j.querySet(self, c), k, self, j.slots.compare)
	out := make([]ColumnMatch, 0, len(res))
	for _, r := range res {
		out = append(out, ColumnMatch{Ref: j.slots.cols[r.Slot].ref, Score: float64(r.Overlap)})
	}
	return out, nil
}

// RelatedTables implements Discoverer: a table's relatedness to the
// query is the maximum column-pair overlap, normalized by the query
// column's cardinality.
func (j *JOSIE) RelatedTables(query *table.Table, k int) []metamodel.TableScore {
	selfTable := j.slots.tableID(query.Name)
	// best is indexed by table id; seen lists the ids with a score.
	best := make([]float64, j.slots.numTables())
	var seen []uint32
	var hits []sketch.OverlapResult
	for _, c := range query.Columns {
		self := j.slots.slot(query.Name, c.Name)
		qset := j.querySet(self, c)
		if len(qset) == 0 {
			continue
		}
		// Over-fetch: several columns of one table may hit.
		hits = j.index.TopKOverlap(hits[:0], qset, 4*k, self, j.slots.compare)
		for _, r := range hits {
			tid := j.slots.cols[r.Slot].table
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
		out[i] = metamodel.TableScore{Table: j.slots.tables[tid].name, Score: best[tid]}
	}
	return rankScores(out, k)
}

// querySet returns the indexed set of a query column, or builds it
// without writing the dictionary when the column is not indexed.
func (j *JOSIE) querySet(slot uint32, c *table.Column) sketch.Set {
	if slot != sketch.NoSlot {
		return j.index.Set(slot)
	}
	return j.dict.Lookup().Set(textualValues(c, j.MaxValuesPerColumn))
}

// rankTables converts a score map into a sorted, truncated result list.
func rankTables(scores map[string]float64, k int) []metamodel.TableScore {
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
