package metamodel

import "fmt"

// ColumnRef identifies one attribute of one dataset.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders "table.column".
func (c ColumnRef) String() string { return c.Table + "." + c.Column }

// TableScore is a ranked related-table result.
type TableScore struct {
	Table string
	Score float64
}

// String renders "table(0.87)".
func (s TableScore) String() string { return fmt.Sprintf("%s(%.2f)", s.Table, s.Score) }
