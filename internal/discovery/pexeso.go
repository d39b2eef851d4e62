package discovery

import (
	"math"
	"sort"

	"golake/internal/embed"
	"golake/internal/metamodel"
	"golake/internal/table"
)

// PEXESO implements semantically joinable table discovery over textual
// attributes (Dong et al., Sec. 6.2.3): values are embedded as
// high-dimensional vectors; two columns are semantically joinable when
// a large fraction of the query column's vectors have a match within a
// distance threshold in the candidate column. Exact-match lookups are
// served by an inverted map, and a hierarchical grid over the first
// vector dimensions prunes candidate vectors before the expensive
// similarity computation — the paper's pivot/grid pruning in spirit.
type PEXESO struct {
	// Tau is the per-value cosine-similarity threshold for a match.
	Tau float64
	// JoinabilityThreshold is the fraction of query values that must
	// match for a column to count as joinable.
	JoinabilityThreshold float64
	// GridCells is the number of cells per grid dimension.
	GridCells int

	model   *embed.Model
	columns map[metamodel.ColumnRef]*pexColumn
	tables  map[string][]*pexColumn
}

type pexColumn struct {
	ref metamodel.ColumnRef
	// values[i] embeds to vectors[i]; exact is the same distinct value
	// set as a lookup map for the exact-match short-circuit.
	values  []string
	vectors [][]float64
	exact   map[string]struct{}
	// grid buckets vector indices by their cell to prune comparisons.
	grid map[[2]int][]int
}

// NewPEXESO creates an instance with the paper-spirit defaults.
func NewPEXESO() *PEXESO {
	return &PEXESO{
		Tau:                  0.9,
		JoinabilityThreshold: 0.5,
		GridCells:            8,
		model:                embed.NewModel(32),
		columns:              map[metamodel.ColumnRef]*pexColumn{},
		tables:               map[string][]*pexColumn{},
	}
}

// Name implements Discoverer.
func (p *PEXESO) Name() string { return "PEXESO" }

// Index implements Discoverer: embed every textual column's distinct
// values and bucket them into the grid.
func (p *PEXESO) Index(tables []*table.Table) error {
	for _, t := range tables {
		for _, c := range t.Columns {
			if c.Kind.Numeric() {
				continue // PEXESO targets textual attributes
			}
			p.model.AddColumn(capped(c.DistinctSlice(), 200))
		}
	}
	for _, t := range tables {
		for _, c := range t.Columns {
			if c.Kind.Numeric() {
				continue
			}
			pc := p.embedColumn(t.Name, c)
			p.columns[pc.ref] = pc
			p.tables[t.Name] = append(p.tables[t.Name], pc)
		}
	}
	return nil
}

func (p *PEXESO) embedColumn(tableName string, c *table.Column) *pexColumn {
	vals := capped(c.DistinctSlice(), 300)
	pc := &pexColumn{
		ref:   metamodel.ColumnRef{Table: tableName, Column: c.Name},
		exact: map[string]struct{}{},
		grid:  map[[2]int][]int{},
	}
	for _, v := range vals {
		pc.exact[v] = struct{}{}
		vec := p.model.Vector(v)
		idx := len(pc.vectors)
		pc.values = append(pc.values, v)
		pc.vectors = append(pc.vectors, vec)
		pc.grid[p.cell(vec)] = append(pc.grid[p.cell(vec)], idx)
	}
	return pc
}

// cell maps a vector to its grid cell over the first two dimensions
// (vectors are unit-norm, so coordinates lie in [-1,1]).
func (p *PEXESO) cell(v []float64) [2]int {
	var out [2]int
	for d := 0; d < 2 && d < len(v); d++ {
		x := (v[d] + 1) / 2 * float64(p.GridCells)
		i := int(x)
		if i >= p.GridCells {
			i = p.GridCells - 1
		}
		if i < 0 {
			i = 0
		}
		out[d] = i
	}
	return out
}

// neighborsOfCell yields the 3x3 cell neighborhood (cosine-close unit
// vectors land in adjacent cells).
func (p *PEXESO) neighborsOfCell(c [2]int) [][2]int {
	var out [][2]int
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			x, y := c[0]+dx, c[1]+dy
			if x < 0 || y < 0 || x >= p.GridCells || y >= p.GridCells {
				continue
			}
			out = append(out, [2]int{x, y})
		}
	}
	return out
}

// Joinability computes the fraction of the query column's values that
// have a semantic match in the candidate column.
func (p *PEXESO) Joinability(q, cand *pexColumn) float64 {
	if len(q.vectors) == 0 {
		return 0
	}
	matched := 0
	for i, v := range q.values {
		// Exact value match short-circuits the vector search.
		if _, ok := cand.exact[v]; ok {
			matched++
			continue
		}
		if p.hasVectorMatch(q.vectors[i], cand) {
			matched++
		}
	}
	return float64(matched) / float64(len(q.values))
}

func (p *PEXESO) hasVectorMatch(vec []float64, cand *pexColumn) bool {
	for _, cell := range p.neighborsOfCell(p.cell(vec)) {
		for _, idx := range cand.grid[cell] {
			if cosine(vec, cand.vectors[idx]) >= p.Tau {
				return true
			}
		}
	}
	return false
}

func cosine(a, b []float64) float64 {
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

// RelatedTables implements Discoverer: a table's score is the best
// joinability between any query column and any of its columns.
func (p *PEXESO) RelatedTables(query *table.Table, k int) []metamodel.TableScore {
	best := map[string]float64{}
	for _, c := range query.Columns {
		if c.Kind.Numeric() {
			continue
		}
		qp, ok := p.columns[metamodel.ColumnRef{Table: query.Name, Column: c.Name}]
		if !ok {
			qp = p.embedColumn(query.Name, c)
		}
		for tbl, cols := range p.tables {
			if tbl == query.Name {
				continue
			}
			for _, cand := range cols {
				j := p.Joinability(qp, cand)
				if j >= p.JoinabilityThreshold && j > best[tbl] {
					best[tbl] = j
				}
			}
		}
	}
	return RankTables(best, k)
}

// JoinableColumns implements JoinSearcher with joinability scores.
func (p *PEXESO) JoinableColumns(query *table.Table, column string, k int) ([]ColumnMatch, error) {
	c, err := query.Column(column)
	if err != nil {
		return nil, err
	}
	qp, ok := p.columns[metamodel.ColumnRef{Table: query.Name, Column: column}]
	if !ok {
		qp = p.embedColumn(query.Name, c)
	}
	var out []ColumnMatch
	for tbl, cols := range p.tables {
		if tbl == query.Name {
			continue
		}
		for _, cand := range cols {
			if j := p.Joinability(qp, cand); j >= p.JoinabilityThreshold {
				out = append(out, ColumnMatch{Ref: cand.ref, Score: j})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return compareRefs(out[i].Ref, out[j].Ref) < 0
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}
