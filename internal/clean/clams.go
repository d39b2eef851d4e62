// Package clean implements the data-cleaning function of the
// maintenance tier (Sec. 6.5): CLAMS-style constraint-based error
// detection with hypergraph ranking and user validation, over the
// relaxed functional dependencies Constance discovers.
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

// TablesToTriples flattens a table into triples: (rowID, column,
// value), the extraction step CLAMS applies before constraint
// discovery.
func TablesToTriples(t *table.Table) []Triple {
	var out []Triple
	for i := 0; i < t.NumRows(); i++ {
		subj := fmt.Sprintf("%s/%d", t.Name, i)
		for _, c := range t.Columns {
			out = append(out, Triple{Subject: subj, Predicate: c.Name, Object: c.Cells[i]})
		}
	}
	return out
}

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
	var out []DiscoveredConstraint
	for _, rfd := range enrich.DiscoverRFDs(t, minConfidence) {
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
// violating hyperedge's two cells, dependent first.
func eachViolation(t *table.Table, constraints []DiscoveredConstraint, visit func(row int, predicate, object string)) {
	for _, dc := range constraints {
		lhs, err := t.Column(dc.Determinant)
		if err != nil {
			continue
		}
		rhs, err := t.Column(dc.Dependent)
		if err != nil {
			continue
		}
		groups := map[string][]int{}
		for i, v := range lhs.Cells {
			groups[v] = append(groups[v], i)
		}
		freq := map[string]int{}
		for gv, rows := range groups {
			clear(freq)
			for _, ri := range rows {
				freq[rhs.Cells[ri]]++
			}
			var majority string
			best := -1
			for v, n := range freq {
				if n > best || n == best && v < majority {
					majority, best = v, n
				}
			}
			for _, ri := range rows {
				if rhs.Cells[ri] != majority {
					visit(ri, dc.Dependent, rhs.Cells[ri])
					visit(ri, dc.Determinant, gv)
				}
			}
		}
	}
}

// Oracle answers CLAMS's user-validation question: should this
// candidate dirty triple be removed? Scripted oracles replace the
// human-in-the-loop in tests and benches.
type Oracle func(t Triple) bool

// CleanWithOracle removes the cells whose violating triples the oracle
// confirms, blanking them in a copy of the table. Returns the cleaned
// table and how many cells were blanked.
func CleanWithOracle(t *table.Table, ranked []Violation, oracle Oracle) (*table.Table, int) {
	out := t.Clone()
	removed := 0
	for _, v := range ranked {
		if !oracle(v.Triple) {
			continue
		}
		var row int
		if n, err := fmt.Sscanf(lastSegment(v.Triple.Subject), "%d", &row); n != 1 || err != nil {
			continue
		}
		col, err := out.Column(v.Triple.Predicate)
		if err != nil || row >= col.Len() {
			continue
		}
		if col.Cells[row] == v.Triple.Object {
			col.Cells[row] = ""
			removed++
		}
	}
	return out, removed
}

func lastSegment(s string) string {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return s[i+1:]
		}
	}
	return s
}
