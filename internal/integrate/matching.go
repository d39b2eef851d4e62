// Package integrate implements the data-integration function of the
// maintenance tier (Sec. 6.3): Constance's schema matching, and ALITE's
// holistic integration of discovered tables via column clustering and
// Full Disjunction.
package integrate

import (
	"sort"

	"golake/internal/metamodel"
	"golake/internal/sketch"
	"golake/internal/table"
)

// Correspondence is one schema-matching result: two columns judged
// semantically related, with the combined confidence.
type Correspondence struct {
	A, B metamodel.ColumnRef
	Sim  float64
}

// MatchConfig tunes the matcher.
type MatchConfig struct {
	// MinSim is the acceptance threshold on combined similarity.
	MinSim float64
	// NameWeight/InstanceWeight combine the two evidence kinds; they
	// need not sum to 1 (normalized internally).
	NameWeight     float64
	InstanceWeight float64
}

// DefaultMatchConfig mirrors Constance's default matcher behaviour:
// both name and instance evidence, moderate threshold.
func DefaultMatchConfig() MatchConfig {
	return MatchConfig{MinSim: 0.4, NameWeight: 0.5, InstanceWeight: 0.5}
}

// MatchColumns scores one column pair on name similarity (q-gram
// Jaccard and Levenshtein) and instance overlap (value Jaccard), with a
// type-compatibility gate.
func MatchColumns(a, b *table.Column, cfg MatchConfig) float64 {
	if a.Kind.Numeric() != b.Kind.Numeric() && a.Kind != table.KindUnknown && b.Kind != table.KindUnknown {
		return 0
	}
	ids := sketch.NewDict()
	nameSim := 0.5*sketch.ExactJaccard(
		ids.Set(sketch.QGrams(a.Name, 3)),
		ids.Set(sketch.QGrams(b.Name, 3)),
	) + 0.5*sketch.LevenshteinSim(a.Name, b.Name)
	instSim := sketch.ExactJaccard(ids.Set(a.Profile().Distinct), ids.Set(b.Profile().Distinct))
	den := cfg.NameWeight + cfg.InstanceWeight
	if den == 0 {
		return 0
	}
	avg := (cfg.NameWeight*nameSim + cfg.InstanceWeight*instSim) / den
	// One strong matcher suffices (with a penalty for missing
	// corroboration) — the standard max-combination of multi-matcher
	// systems; homonyms/synonyms make either signal alone unreliable
	// only near the threshold.
	best := nameSim
	if instSim > best {
		best = instSim
	}
	if s := 0.85 * best; s > avg {
		return s
	}
	return avg
}

// Match computes the correspondences between two tables: the best
// partner per column, kept when above threshold, stable under order.
func Match(a, b *table.Table, cfg MatchConfig) []Correspondence {
	var out []Correspondence
	for _, ca := range a.Columns {
		bestSim := 0.0
		var best *table.Column
		for _, cb := range b.Columns {
			if sim := MatchColumns(ca, cb, cfg); sim > bestSim {
				bestSim = sim
				best = cb
			}
		}
		if best != nil && bestSim >= cfg.MinSim {
			out = append(out, Correspondence{
				A:   metamodel.ColumnRef{Table: a.Name, Column: ca.Name},
				B:   metamodel.ColumnRef{Table: b.Name, Column: best.Name},
				Sim: bestSim,
			})
		}
	}
	return out
}

// MatchAll computes pairwise correspondences across a set of tables.
func MatchAll(tables []*table.Table, cfg MatchConfig) []Correspondence {
	var out []Correspondence
	for i := 0; i < len(tables); i++ {
		for j := i + 1; j < len(tables); j++ {
			out = append(out, Match(tables[i], tables[j], cfg)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].A.String()+out[i].B.String() < out[j].A.String()+out[j].B.String()
	})
	return out
}

// Cluster groups columns into attribute clusters: connected components
// of the correspondence graph. ALITE's holistic matching does exactly
// this before computing the Full Disjunction; Constance's integrated
// schema derives one attribute per cluster.
func Cluster(tables []*table.Table, corrs []Correspondence) [][]metamodel.ColumnRef {
	parent := map[metamodel.ColumnRef]metamodel.ColumnRef{}
	var find func(x metamodel.ColumnRef) metamodel.ColumnRef
	find = func(x metamodel.ColumnRef) metamodel.ColumnRef {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	union := func(a, b metamodel.ColumnRef) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, t := range tables {
		for _, c := range t.Columns {
			ref := metamodel.ColumnRef{Table: t.Name, Column: c.Name}
			parent[ref] = ref
		}
	}
	for _, co := range corrs {
		if _, ok := parent[co.A]; !ok {
			parent[co.A] = co.A
		}
		if _, ok := parent[co.B]; !ok {
			parent[co.B] = co.B
		}
		union(co.A, co.B)
	}
	groups := map[metamodel.ColumnRef][]metamodel.ColumnRef{}
	for ref := range parent {
		root := find(ref)
		groups[root] = append(groups[root], ref)
	}
	var out [][]metamodel.ColumnRef
	for _, members := range groups {
		sort.Slice(members, func(i, j int) bool { return members[i].String() < members[j].String() })
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].String() < out[j][0].String() })
	return out
}
