package table

// ColumnProfile summarizes a column: the data-based features DS-kNN
// extracts.
type ColumnProfile struct {
	Name     string
	Kind     Kind
	Count    int
	Nulls    int
	Distinct int
	// MeanLen is the average string length of non-null cells.
	MeanLen float64
}

// Profile computes the profile of a column in one walk over its cells,
// keeping a set of its distinct values.
func Profile(c *Column) ColumnProfile {
	p := ColumnProfile{Name: c.Name, Kind: c.Kind, Count: c.Len()}
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
		p.MeanLen = float64(total) / float64(nonNull)
	}
	return p
}
