package discovery

import (
	"fmt"
	"sort"

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
	index *sketch.InvertedIndex
	// cols maps "table.column" -> its distinct set (the "set file" the
	// cost model would read).
	cols map[string]sketch.Set
	// tablesOf maps table name -> its column keys.
	tablesOf map[string][]string
	// MaxValuesPerColumn caps indexed set size (0 = unlimited).
	MaxValuesPerColumn int
}

// NewJOSIE creates an unindexed JOSIE instance.
func NewJOSIE() *JOSIE {
	return &JOSIE{
		index:    sketch.NewInvertedIndex(),
		cols:     map[string]sketch.Set{},
		tablesOf: map[string][]string{},
	}
}

// Name implements Discoverer.
func (j *JOSIE) Name() string { return "JOSIE" }

// Index implements Discoverer: every column of every table becomes one
// indexed set.
func (j *JOSIE) Index(tables []*table.Table) error {
	for _, t := range tables {
		for _, c := range t.Columns {
			key := columnKey(t.Name, c.Name)
			set := sketch.ToSet(textualValues(c, j.MaxValuesPerColumn))
			j.cols[key] = set
			j.index.Add(key, set)
			j.tablesOf[t.Name] = append(j.tablesOf[t.Name], key)
		}
	}
	return nil
}

// Remove drops every indexed column of one table — the incremental
// eviction path, so removing a dataset does not force a corpus-wide
// re-index.
func (j *JOSIE) Remove(tableName string) {
	for _, key := range j.tablesOf[tableName] {
		j.index.Remove(key)
		delete(j.cols, key)
	}
	delete(j.tablesOf, tableName)
}

// JoinableColumns implements JoinSearcher: exact top-k overlap search
// for one query column.
func (j *JOSIE) JoinableColumns(query *table.Table, column string, k int) ([]ColumnMatch, error) {
	c, err := query.Column(column)
	if err != nil {
		return nil, err
	}
	qset := sketch.ToSet(textualValues(c, j.MaxValuesPerColumn))
	self := columnKey(query.Name, column)
	res := j.index.TopKOverlap(qset, k, self)
	out := make([]ColumnMatch, 0, len(res))
	for _, r := range res {
		tbl, col, err := splitKey(r.ID)
		if err != nil {
			return nil, err
		}
		out = append(out, ColumnMatch{
			Ref:   metamodel.ColumnRef{Table: tbl, Column: col},
			Score: float64(r.Overlap),
		})
	}
	return out, nil
}

// RelatedTables implements Discoverer: a table's relatedness to the
// query is the maximum column-pair overlap, normalized by the query
// column's cardinality.
func (j *JOSIE) RelatedTables(query *table.Table, k int) []metamodel.TableScore {
	best := map[string]float64{}
	for _, c := range query.Columns {
		qset := sketch.ToSet(textualValues(c, j.MaxValuesPerColumn))
		if len(qset) == 0 {
			continue
		}
		self := columnKey(query.Name, c.Name)
		// Over-fetch: several columns of one table may hit.
		for _, r := range j.index.TopKOverlap(qset, 4*k, self) {
			tbl, _, err := splitKey(r.ID)
			if err != nil || tbl == query.Name {
				continue
			}
			score := float64(r.Overlap) / float64(len(qset))
			if score > best[tbl] {
				best[tbl] = score
			}
		}
	}
	return rankTables(best, k)
}

func splitKey(key string) (tbl, col string, err error) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '.' {
			return key[:i], key[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("discovery: malformed column key %q", key)
}

// rankTables converts a score map into a sorted, truncated result list.
func rankTables(scores map[string]float64, k int) []metamodel.TableScore {
	out := make([]metamodel.TableScore, 0, len(scores))
	for t, s := range scores {
		out = append(out, metamodel.TableScore{Table: t, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Table < out[j].Table
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
