package metamodel

import (
	"fmt"
	"sort"
	"sync"
)

// EKG is Aurum's enterprise knowledge graph (Sec. 5.2.3/6.2.1): a
// hypergraph whose nodes are dataset attributes (columns), whose
// weighted edges record relationships between columns (content
// similarity, PK-FK candidates), and whose hyperedges group arbitrary
// node sets at coarser granularity (most commonly: all columns of one
// table).
type EKG struct {
	mu         sync.RWMutex
	nodes      map[ColumnRef]bool
	edges      map[ekgKey]*EKGEdge
	adj        map[ColumnRef][]ekgKey
	hyperedges map[string][]ColumnRef
}

// ColumnRef identifies one attribute of one dataset.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders "table.column".
func (c ColumnRef) String() string { return c.Table + "." + c.Column }

// EKGEdge is a weighted, labeled relationship between two columns.
type EKGEdge struct {
	A, B   ColumnRef
	Label  string
	Weight float64
}

type ekgKey struct {
	a, b  ColumnRef
	label string
}

func newKey(a, b ColumnRef, label string) ekgKey {
	if b.Table < a.Table || (b.Table == a.Table && b.Column < a.Column) {
		a, b = b, a
	}
	return ekgKey{a: a, b: b, label: label}
}

// NewEKG creates an empty enterprise knowledge graph.
func NewEKG() *EKG {
	return &EKG{
		nodes:      map[ColumnRef]bool{},
		edges:      map[ekgKey]*EKGEdge{},
		adj:        map[ColumnRef][]ekgKey{},
		hyperedges: map[string][]ColumnRef{},
	}
}

// AddColumn registers a column node.
func (g *EKG) AddColumn(ref ColumnRef) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nodes[ref] = true
}

// NumColumns returns the node count.
func (g *EKG) NumColumns() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// NumEdges returns the edge count.
func (g *EKG) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// Relate adds (or updates) an undirected weighted edge between two
// columns; both endpoints are registered implicitly.
func (g *EKG) Relate(a, b ColumnRef, label string, weight float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nodes[a] = true
	g.nodes[b] = true
	k := newKey(a, b, label)
	if e, ok := g.edges[k]; ok {
		e.Weight = weight
		return
	}
	g.edges[k] = &EKGEdge{A: k.a, B: k.b, Label: label, Weight: weight}
	g.adj[a] = append(g.adj[a], k)
	g.adj[b] = append(g.adj[b], k)
}

// RemoveRelations drops all edges incident to a column (Aurum refreshes
// a column's edges when its data drifts past the update threshold).
func (g *EKG) RemoveRelations(ref ColumnRef) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, k := range g.adj[ref] {
		delete(g.edges, k)
		other := k.a
		if other == ref {
			other = k.b
		}
		g.adj[other] = removeKey(g.adj[other], k)
	}
	delete(g.adj, ref)
}

func removeKey(list []ekgKey, k ekgKey) []ekgKey {
	for i, x := range list {
		if x == k {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// Neighbors returns the edges incident to ref with the given label
// ("" = any) and weight >= minWeight, sorted by descending weight.
func (g *EKG) Neighbors(ref ColumnRef, label string, minWeight float64) []EKGEdge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []EKGEdge
	seen := map[ekgKey]bool{}
	for _, k := range g.adj[ref] {
		if seen[k] {
			continue
		}
		seen[k] = true
		e, ok := g.edges[k]
		if !ok {
			continue
		}
		if label != "" && e.Label != label {
			continue
		}
		if e.Weight < minWeight {
			continue
		}
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return other(out[i], ref).String() < other(out[j], ref).String()
	})
	return out
}

func other(e EKGEdge, ref ColumnRef) ColumnRef {
	if e.A == ref {
		return e.B
	}
	return e.A
}

// Other returns the endpoint of e that is not ref.
func Other(e EKGEdge, ref ColumnRef) ColumnRef { return other(e, ref) }

// AddHyperedge groups a set of columns under a name (e.g. a table
// grouping all its columns, or a user-defined topic).
func (g *EKG) AddHyperedge(name string, members []ColumnRef) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cp := append([]ColumnRef(nil), members...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].String() < cp[j].String() })
	g.hyperedges[name] = cp
	for _, m := range cp {
		g.nodes[m] = true
	}
}

// Hyperedge returns the members of a named hyperedge.
func (g *EKG) Hyperedge(name string) ([]ColumnRef, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	m, ok := g.hyperedges[name]
	if !ok {
		return nil, false
	}
	return append([]ColumnRef(nil), m...), true
}

// Hyperedges lists hyperedge names, sorted.
func (g *EKG) Hyperedges() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.hyperedges))
	for n := range g.hyperedges {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TablesRelated returns, for a query table's hyperedge, the tables
// reachable through at least one column edge with weight >= minWeight,
// with the strongest edge weight per table, sorted descending.
func (g *EKG) TablesRelated(tableName string, minWeight float64) []TableScore {
	members, ok := g.Hyperedge(tableName)
	if !ok {
		return nil
	}
	best := map[string]float64{}
	for _, col := range members {
		for _, e := range g.Neighbors(col, "", minWeight) {
			o := other(e, col)
			if o.Table == tableName {
				continue
			}
			if e.Weight > best[o.Table] {
				best[o.Table] = e.Weight
			}
		}
	}
	out := make([]TableScore, 0, len(best))
	for t, w := range best {
		out = append(out, TableScore{Table: t, Score: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Table < out[j].Table
	})
	return out
}

// TableScore is a ranked related-table result.
type TableScore struct {
	Table string
	Score float64
}

// String renders "table(0.87)".
func (s TableScore) String() string { return fmt.Sprintf("%s(%.2f)", s.Table, s.Score) }
