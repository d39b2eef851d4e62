// Package clean implements the data-cleaning function of the
// maintenance tier (Sec. 6.5): CLAMS-style constraint-based error
// detection, ranking candidate errors on a violation hypergraph for
// user validation, over the relaxed functional dependencies Constance
// discovers.
package clean

import (
	"fmt"
	"sort"

	"golake/internal/enrich"
	"golake/internal/table"
)

// Triple is one RDF-style fact; CLAMS operates on triples extracted
// from the heterogeneous lake data.
type Triple struct {
	Subject   string
	Predicate string
	Object    string
}

// String renders "(s, p, o)".
func (t Triple) String() string { return fmt.Sprintf("(%s, %s, %s)", t.Subject, t.Predicate, t.Object) }

// DiscoveredConstraint is a functional denial constraint discovered
// from the data itself: determinant predicate -> dependent predicate
// with the observed confidence.
type DiscoveredConstraint struct {
	Determinant string
	Dependent   string
	Confidence  float64
}

// DiscoverConstraints finds functional denial constraints from triples
// by reconstructing the implied relation and running relaxed FD
// discovery — CLAMS "automatically detects such constraints by
// discovering possible schemata from the data and corresponding
// constraints".
func DiscoverConstraints(t *table.Table, minConfidence float64) []DiscoveredConstraint {
	return ConstraintsOf(enrich.DiscoverRFDs(t, minConfidence))
}

// ConstraintsOf turns discovered relaxed FDs into functional denial
// constraints, in their order, for a caller that has discovered them
// already.
func ConstraintsOf(rfds []enrich.RFD) []DiscoveredConstraint {
	var out []DiscoveredConstraint
	for _, rfd := range rfds {
		out = append(out, DiscoveredConstraint{
			Determinant: rfd.Lhs,
			Dependent:   rfd.Rhs,
			Confidence:  rfd.Confidence,
		})
	}
	return out
}

// Violation is one triple with its violation count from the CLAMS
// hypergraph: each violated constraint instance is a hyperedge over
// the participating triples; the triple's score is the number of
// hyperedges covering it.
type Violation struct {
	Triple     Triple
	Violations int
}

// RankViolations builds the violation hypergraph for the discovered
// functional constraints and ranks triples by how many constraint
// instances they participate in — the candidates CLAMS presents to the
// user, dirtiest first.
func RankViolations(t *table.Table, constraints []DiscoveredConstraint) []Violation {
	counts := map[Triple]int{}
	eachViolation(t, constraints, func(row int, predicate, object string) {
		counts[Triple{Subject: fmt.Sprintf("%s/%d", t.Name, row), Predicate: predicate, Object: object}]++
	})
	// Sort on keys rendered once per triple: Triple.String is a Sprintf.
	type ranked struct {
		Violation
		key string
	}
	rs := make([]ranked, 0, len(counts))
	for tr, n := range counts {
		rs = append(rs, ranked{Violation{Triple: tr, Violations: n}, tr.String()})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Violations != rs[j].Violations {
			return rs[i].Violations > rs[j].Violations
		}
		return rs[i].key < rs[j].key
	})
	out := make([]Violation, len(rs))
	for i, r := range rs {
		out[i] = r.Violation
	}
	return out
}

// CountViolations is len(RankViolations(t, constraints)), the number of
// distinct violating triples, without rendering or ranking them.
func CountViolations(t *table.Table, constraints []DiscoveredConstraint) int {
	type cell struct {
		row               int
		predicate, object string
	}
	seen := map[cell]struct{}{}
	eachViolation(t, constraints, func(row int, predicate, object string) {
		seen[cell{row, predicate, object}] = struct{}{}
	})
	return len(seen)
}

// eachViolation walks the violation hypergraph: for every constraint
// and every row whose dependent value is not its determinant group's
// majority (the smallest value among tied ones), it visits the
// violating hyperedge's two cells, dependent first. Rows are grouped by
// determinant value through one map of group ids and a counting sort
// into one row array, reused across constraints, so a call allocates
// the same few buffers however many groups the table has.
func eachViolation(t *table.Table, constraints []DiscoveredConstraint, visit func(row int, predicate, object string)) {
	var (
		ids   = map[string]int32{}
		freq  = map[string]int{}
		group []int32 // row -> group id
		// bound[g] ends, and after the sort starts, group g's run in rows.
		bound []int32
		rows  []int32 // row ids, grouped, ascending within a group
	)
	for _, dc := range constraints {
		lhs, err := t.Column(dc.Determinant)
		if err != nil {
			continue
		}
		rhs, err := t.Column(dc.Dependent)
		if err != nil {
			continue
		}
		clear(ids)
		group, bound = group[:0], bound[:0]
		for _, v := range lhs.Cells {
			g, ok := ids[v]
			if !ok {
				g = int32(len(bound))
				ids[v] = g
				bound = append(bound, 0)
			}
			group = append(group, g)
			bound[g]++
		}
		var end int32
		for g, n := range bound {
			end += n
			bound[g] = end
		}
		rows = append(rows[:0], make([]int32, len(group))...)
		for i := len(group) - 1; i >= 0; i-- {
			g := group[i]
			bound[g]--
			rows[bound[g]] = int32(i)
		}
		bound = append(bound, int32(len(rows)))
		for g := 0; g+1 < len(bound); g++ {
			members := rows[bound[g]:bound[g+1]]
			clear(freq)
			for _, ri := range members {
				freq[rhs.Cells[ri]]++
			}
			var majority string
			best := -1
			for v, n := range freq {
				if n > best || n == best && v < majority {
					majority, best = v, n
				}
			}
			gv := lhs.Cells[members[0]]
			for _, ri := range members {
				if rhs.Cells[ri] != majority {
					visit(int(ri), dc.Dependent, rhs.Cells[ri])
					visit(int(ri), dc.Determinant, gv)
				}
			}
		}
	}
}
