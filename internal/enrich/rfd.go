// Package enrich implements the metadata-enrichment function of the
// maintenance tier (Sec. 6.4): Constance's relaxed-functional-dependency
// discovery, which every maintenance pass runs over each new dataset.
package enrich

import (
	"fmt"
	"sort"

	"golake/internal/table"
)

// RFD is one discovered relaxed functional dependency X -> Y
// (Sec. 6.4.2): Y functionally depends on X for at least Confidence of
// the tuples — the relaxation tolerates a fraction of violating rows,
// which is what makes FD discovery usable on inconsistent raw lake
// data (Constance / Caruccio et al.).
type RFD struct {
	// Lhs/Rhs are column names of the same table.
	Table string
	Lhs   string
	Rhs   string
	// Confidence is the fraction of rows consistent with the
	// dependency under the "keep the majority value per group" reading.
	Confidence float64
}

// String renders "t: a ~> b (0.97)".
func (r RFD) String() string {
	return fmt.Sprintf("%s: %s ~> %s (%.2f)", r.Table, r.Lhs, r.Rhs, r.Confidence)
}

// DiscoverRFDs finds all single-attribute relaxed FDs of a table with
// confidence >= minConfidence. Trivial dependencies (key columns that
// determine everything with groups of size one) are kept only when
// nontrivial evidence exists: at least one LHS group with more than one
// row.
func DiscoverRFDs(t *table.Table, minConfidence float64) []RFD {
	out := discoverRFDs(t, minConfidence)
	sortRFDs(out)
	return out
}

// DiscoverRFDsAt returns DiscoverRFDs(t, hi) and DiscoverRFDs(t, lo),
// hi >= lo, from one discovery at lo. Each list is the one discovery
// at its own confidence finds, sorted alike, so the order sort.Slice
// leaves ties in is the same too.
func DiscoverRFDsAt(t *table.Table, hi, lo float64) (atHi, atLo []RFD) {
	atLo = discoverRFDs(t, lo)
	for _, r := range atLo {
		if r.Confidence >= hi {
			atHi = append(atHi, r)
		}
	}
	sortRFDs(atHi)
	sortRFDs(atLo)
	return atHi, atLo
}

// discoverRFDs returns the RFDs of confidence >= minConfidence in the
// order it finds them: by determinant column, then dependent column.
func discoverRFDs(t *table.Table, minConfidence float64) []RFD {
	var out []RFD
	n := t.NumRows()
	if n == 0 {
		return nil
	}
	freq := map[string]int{}
	for _, lhs := range t.Columns {
		groups := map[string][]int{}
		for i, v := range lhs.Cells {
			groups[v] = append(groups[v], i)
		}
		multi := false
		for _, rows := range groups {
			if len(rows) > 1 {
				multi = true
				break
			}
		}
		if !multi {
			continue
		}
		for _, rhs := range t.Columns {
			if rhs.Name == lhs.Name {
				continue
			}
			consistent := 0
			for _, rows := range groups {
				// Majority value of rhs within the group counts as
				// consistent; the rest are violations.
				clear(freq)
				for _, ri := range rows {
					freq[rhs.Cells[ri]]++
				}
				best := 0
				for _, c := range freq {
					if c > best {
						best = c
					}
				}
				consistent += best
			}
			conf := float64(consistent) / float64(n)
			if conf >= minConfidence {
				out = append(out, RFD{Table: t.Name, Lhs: lhs.Name, Rhs: rhs.Name, Confidence: conf})
			}
		}
	}
	return out
}

// sortRFDs orders RFDs by descending confidence, then by Lhs+Rhs.
func sortRFDs(out []RFD) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Lhs+out[i].Rhs < out[j].Lhs+out[j].Rhs
	})
}
