package table

import (
	"math"
)

// ColumnProfile summarizes a column: the data-based features DS-kNN
// extracts, and the schema GEMMS records.
type ColumnProfile struct {
	Name     string
	Kind     Kind
	Count    int
	Nulls    int
	Distinct int
	// Uniqueness is Distinct / non-null count (1.0 for a key column).
	Uniqueness float64
	// MeanLen is the average string length of non-null cells.
	MeanLen float64
	// Numeric moments; NaN when the column is not numeric.
	Min, Max, Mean, StdDev float64
	// IsKey is true when the column is a candidate key covering >=90%
	// of rows.
	IsKey bool
}

// Profile computes the profile of a column: one walk over its cells and
// one set of its distinct values (one more walk if it is numeric).
func Profile(c *Column) ColumnProfile {
	p := ColumnProfile{
		Name:   c.Name,
		Kind:   c.Kind,
		Count:  c.Len(),
		Min:    math.NaN(),
		Max:    math.NaN(),
		Mean:   math.NaN(),
		StdDev: math.NaN(),
	}
	distinct := make(map[string]struct{}, len(c.Cells))
	total := 0
	for _, v := range c.Cells {
		if isNullToken(v) {
			p.Nulls++
			continue
		}
		total += len(v)
		distinct[v] = struct{}{}
	}
	p.Distinct = len(distinct)
	if nonNull := p.Count - p.Nulls; nonNull > 0 {
		p.Uniqueness = float64(p.Distinct) / float64(nonNull)
		p.MeanLen = float64(total) / float64(nonNull)
		// A candidate key, as IsCandidateKey(0.9) has it.
		p.IsKey = p.Distinct == nonNull && float64(nonNull)/float64(p.Count) >= 0.9
	}
	if c.Kind.Numeric() {
		if xs, frac := c.Floats(); len(xs) > 0 && frac > 0.5 {
			p.Min, p.Max, p.Mean, p.StdDev = moments(xs)
		}
	}
	return p
}

// TableProfile aggregates the per-column profiles of a table.
type TableProfile struct {
	Name    string
	Rows    int
	Columns []ColumnProfile
}

// ProfileTable profiles every column of t.
func ProfileTable(t *Table) TableProfile {
	tp := TableProfile{Name: t.Name, Rows: t.NumRows()}
	for _, c := range t.Columns {
		tp.Columns = append(tp.Columns, Profile(c))
	}
	return tp
}

// moments returns min, max, mean and population standard deviation.
func moments(xs []float64) (min, max, mean, std float64) {
	min, max = math.Inf(1), math.Inf(-1)
	var sum float64
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		sum += x
	}
	mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	std = math.Sqrt(ss / float64(len(xs)))
	return min, max, mean, std
}
