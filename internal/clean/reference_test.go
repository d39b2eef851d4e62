package clean

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"golake/internal/table"
)

// refRankViolations is RankViolations as it was before the hypergraph
// walk was shared with CountViolations, kept verbatim as an oracle: the
// majority is found by sorting a group's values.
func refRankViolations(t *table.Table, constraints []DiscoveredConstraint) []Violation {
	counts := map[Triple]int{}
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
		for gv, rows := range groups {
			freq := map[string]int{}
			for _, ri := range rows {
				freq[rhs.Cells[ri]]++
			}
			var majority string
			best := -1
			var vals []string
			for v := range freq {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			for _, v := range vals {
				if freq[v] > best {
					majority, best = v, freq[v]
				}
			}
			for _, ri := range rows {
				if rhs.Cells[ri] != majority {
					subj := fmt.Sprintf("%s/%d", t.Name, ri)
					counts[Triple{Subject: subj, Predicate: dc.Dependent, Object: rhs.Cells[ri]}]++
					counts[Triple{Subject: subj, Predicate: dc.Determinant, Object: gv}]++
				}
			}
		}
	}
	out := make([]Violation, 0, len(counts))
	for tr, n := range counts {
		out = append(out, Violation{Triple: tr, Violations: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Violations != out[j].Violations {
			return out[i].Violations > out[j].Violations
		}
		return out[i].Triple.String() < out[j].Triple.String()
	})
	return out
}

// violationTable draws a table whose columns take few values, so that
// groups are large, majorities often tie, and one cell is frequently
// the determinant of one constraint and the dependent of another.
func violationTable(rng *rand.Rand, name string) *table.Table {
	cols := 2 + rng.Intn(4)
	rows := 1 + rng.Intn(40)
	var sb strings.Builder
	for c := 0; c < cols; c++ {
		if c > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "c%d", c)
	}
	sb.WriteByte('\n')
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				sb.WriteByte(',')
			}
			switch rng.Intn(6) {
			case 0:
				// empty cell
			case 1:
				fmt.Fprintf(&sb, "%d", rng.Intn(3))
			default:
				sb.WriteString([]string{"a", "b", "ab", "B"}[rng.Intn(1+c%4)])
			}
		}
		sb.WriteByte('\n')
	}
	tbl, err := table.ParseCSV(name, sb.String())
	if err != nil {
		panic(err)
	}
	return tbl
}

// CountViolations counts what RankViolations ranks, and RankViolations
// ranks what the sort-based majority did, on seeded generated tables
// under every ordered column pair as a constraint (tied majorities
// included), under the constraints discovery finds, and with a
// constraint naming a missing column.
func TestCountViolationsMatchesRankViolations(t *testing.T) {
	const seed = 20261015
	rng := rand.New(rand.NewSource(seed))
	ties := 0
	for i := 0; i < 300; i++ {
		tbl := violationTable(rng, fmt.Sprintf("t%d", i))
		all := []DiscoveredConstraint{{Determinant: "c0", Dependent: "missing"}}
		for _, a := range tbl.ColumnNames() {
			for _, b := range tbl.ColumnNames() {
				if a != b {
					all = append(all, DiscoveredConstraint{Determinant: a, Dependent: b})
				}
			}
		}
		ties += tiedGroups(tbl, all)
		for _, cs := range [][]DiscoveredConstraint{all, DiscoverConstraints(tbl, 0.6), nil} {
			ranked := RankViolations(tbl, cs)
			if want := refRankViolations(tbl, cs); !reflect.DeepEqual(ranked, want) {
				t.Fatalf("seed %d table %d: RankViolations = %v, reference %v", seed, i, ranked, want)
			}
			if got := CountViolations(tbl, cs); got != len(ranked) {
				t.Fatalf("seed %d table %d: CountViolations = %d, len(RankViolations) = %d", seed, i, got, len(ranked))
			}
		}
	}
	if ties == 0 {
		t.Fatal("generator drew no tied majority")
	}
}

// tiedGroups counts determinant groups whose most frequent dependent
// value is not unique.
func tiedGroups(tbl *table.Table, cs []DiscoveredConstraint) int {
	n := 0
	for _, dc := range cs {
		lhs, err1 := tbl.Column(dc.Determinant)
		rhs, err2 := tbl.Column(dc.Dependent)
		if err1 != nil || err2 != nil {
			continue
		}
		freq := map[string]map[string]int{}
		for i, v := range lhs.Cells {
			if freq[v] == nil {
				freq[v] = map[string]int{}
			}
			freq[v][rhs.Cells[i]]++
		}
		for _, f := range freq {
			best, at := 0, 0
			for _, c := range f {
				switch {
				case c > best:
					best, at = c, 1
				case c == best:
					at++
				}
			}
			if at > 1 {
				n++
			}
		}
	}
	return n
}
