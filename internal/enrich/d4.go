// Package enrich implements the metadata-enrichment function of the
// maintenance tier (Sec. 6.4): D4's data-driven domain discovery,
// DomainNet's homograph detection via community structure, Constance's
// relaxed-functional-dependency discovery, and CoreDB-style semantic
// feature extraction with knowledge-base tagging hooks.
package enrich

import (
	"fmt"
	"sort"

	"golake/internal/sketch"
	"golake/internal/table"
)

// Domain is one discovered semantic domain: a name and its term set
// (D4 represents each domain by the set of terms that belong to it).
type Domain struct {
	Name  string
	Terms []string
	// Columns lists the contributing "table.column" identifiers.
	Columns []string
}

// D4Config tunes domain discovery.
type D4Config struct {
	// MinColumnSim is the value-overlap threshold for putting two
	// columns in the same domain cluster.
	MinColumnSim float64
	// MinSupport is the minimum number of columns a term must appear
	// in (within a cluster) to enter the domain's term set — D4's
	// robust signal against noise values.
	MinSupport int
	// MaxValuesPerColumn caps the values read per column.
	MaxValuesPerColumn int
}

// DefaultD4Config returns the defaults used in tests and benches.
func DefaultD4Config() D4Config {
	return D4Config{MinColumnSim: 0.3, MinSupport: 2, MaxValuesPerColumn: 2000}
}

// D4 discovers semantic domains data-driven, without external
// knowledge (Ota et al.): textual columns are clustered by value
// overlap (connected components over the column-similarity graph,
// standing in for D4's local-neighborhood expansion), and each
// cluster's robust term set — terms supported by at least MinSupport
// member columns — becomes a domain. A term may appear in several
// domains (ambiguity is preserved: "apple" can be fruit and brand).
func D4(tables []*table.Table, cfg D4Config) []Domain {
	type colEntry struct {
		key    string
		values sketch.Set
	}
	var cols []colEntry
	for _, t := range tables {
		for _, c := range t.Columns {
			if c.Kind.Numeric() || c.Kind == table.KindTime {
				continue
			}
			vals := c.DistinctSlice()
			if cfg.MaxValuesPerColumn > 0 && len(vals) > cfg.MaxValuesPerColumn {
				vals = vals[:cfg.MaxValuesPerColumn]
			}
			if len(vals) == 0 {
				continue
			}
			cols = append(cols, colEntry{key: t.Name + "." + c.Name, values: sketch.ToSet(vals)})
		}
	}
	// Union-find over similar columns.
	parent := make([]int, len(cols))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			if sketch.ExactJaccard(cols[i].values, cols[j].values) >= cfg.MinColumnSim {
				parent[find(i)] = find(j)
			}
		}
	}
	clusters := map[int][]int{}
	for i := range cols {
		r := find(i)
		clusters[r] = append(clusters[r], i)
	}
	var roots []int
	for r := range clusters {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	var out []Domain
	for di, r := range roots {
		members := clusters[r]
		if len(members) < 2 {
			continue // singleton columns carry no cross-column evidence
		}
		support := map[string]int{}
		for _, ci := range members {
			for _, v := range cols[ci].values {
				support[v]++
			}
		}
		var terms []string
		for v, s := range support {
			if s >= cfg.MinSupport {
				terms = append(terms, v)
			}
		}
		if len(terms) == 0 {
			continue
		}
		sort.Strings(terms)
		var colKeys []string
		for _, ci := range members {
			colKeys = append(colKeys, cols[ci].key)
		}
		sort.Strings(colKeys)
		out = append(out, Domain{
			Name:    fmt.Sprintf("domain_%02d", di),
			Terms:   terms,
			Columns: colKeys,
		})
	}
	return out
}

// DomainsOf returns the names of the domains containing the term —
// ambiguous terms return more than one.
func DomainsOf(domains []Domain, term string) []string {
	var out []string
	for _, d := range domains {
		for _, t := range d.Terms {
			if t == term {
				out = append(out, d.Name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}
