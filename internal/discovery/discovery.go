// Package discovery implements the related-dataset-discovery function
// of the maintenance tier (Sec. 6.2 of the survey) with the three
// systems of Table 3 the explorer's modes serve, over one column
// Catalog:
//
//   - JOSIE: exact top-k overlap set similarity over an inverted index
//   - D3L: five relatedness features combined in a weighted Euclidean
//     space, with weights trainable from labeled pairs
//   - Juneau: multi-signal task-specific relatedness for data science
//
// All three satisfy the Discoverer interface.
package discovery

import (
	"golake/internal/metamodel"
	"golake/internal/pool"
	"golake/internal/sketch"
	"golake/internal/table"
)

// Discoverer is the common contract of related-dataset-discovery
// systems: build an index over a corpus once, answer ranked
// related-table queries many times.
type Discoverer interface {
	// Name identifies the system (for reports).
	Name() string
	// Index builds the discovery index over the corpus.
	Index(tables []*table.Table) error
	// RelatedTables returns the top-k tables most related to the query
	// table, excluding the query itself, ranked by descending score.
	RelatedTables(query *table.Table, k int) []metamodel.TableScore
}

// ColumnMatch is a ranked joinable-column result.
type ColumnMatch struct {
	Ref   metamodel.ColumnRef
	Score float64
}

// JoinSearcher is implemented by systems that answer column-level
// joinability queries (exploration mode 1 of Sec. 7.1).
type JoinSearcher interface {
	// JoinableColumns returns the top-k columns joinable with the given
	// column of the query table.
	JoinableColumns(query *table.Table, column string, k int) ([]ColumnMatch, error)
}

// interner builds a profile's Sets: the owner's *sketch.Dict when
// indexing, which interns unseen values, or a *sketch.Lookup on a read
// path, which writes nothing.
type interner interface {
	Set(values []string) sketch.Set
}

// embedder embeds a column's values: a worker's *embed.Reader of the
// staged model when indexing, or the *embed.Model on a read path.
// Neither writes the model.
type embedder interface {
	ColumnVector(values []string) []float64
}

// Profiles lists every column of the tables once: cols[i][j] profiles
// tables[i].Columns[j]. The tables are spread over a pool of
// min(GOMAXPROCS, tables) workers, one table per claim; one table is
// profiled on the calling goroutine. Every index a build feeds reads
// these profiles instead of listing a column again.
func Profiles(tables []*table.Table) [][]table.Profile {
	cols := make([][]table.Profile, len(tables))
	pool.Run(pool.Size(len(tables)), len(tables), func(_, i int) {
		ps := make([]table.Profile, len(tables[i].Columns))
		for j, c := range tables[i].Columns {
			ps[j] = c.Profile()
		}
		cols[i] = ps
	})
	return cols
}

// capped returns the first n values at most (n <= 0: all), to bound
// index cost.
func capped(vals []string, n int) []string {
	if n > 0 && len(vals) > n {
		return vals[:n]
	}
	return vals
}
