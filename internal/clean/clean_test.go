package clean

import (
	"strings"
	"testing"

	"golake/internal/table"
	"golake/internal/workload"
)

func mustCSV(t *testing.T, name, csv string) *table.Table {
	t.Helper()
	tbl, err := table.ParseCSV(name, csv)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestDiscoverConstraintsAndRankViolations(t *testing.T) {
	// city determines country; row 2 violates (berlin->fr).
	tbl := mustCSV(t, "geo", "city,country\nberlin,de\nberlin,de\nberlin,fr\nparis,fr\nparis,fr\nrome,it\n")
	constraints := DiscoverConstraints(tbl, 0.8)
	if len(constraints) == 0 {
		t.Fatal("no constraints discovered")
	}
	found := false
	for _, c := range constraints {
		if c.Determinant == "city" && c.Dependent == "country" {
			found = true
		}
	}
	if !found {
		t.Fatalf("city->country missing: %+v", constraints)
	}
	ranked := RankViolations(tbl, constraints)
	if len(ranked) == 0 {
		t.Fatal("no violations ranked")
	}
	// The dirty cell (geo/2, country, fr) must be among the top ranked.
	top := ranked[0]
	if !strings.HasPrefix(top.Triple.Subject, "geo/2") {
		t.Errorf("top violation = %+v, want row 2", top)
	}
}

// TestCountViolationsAllocationCeiling: counting a 100-row corpus
// table's violations allocates a fixed set of buffers, not one row
// list per determinant value (877 allocations when it did).
func TestCountViolationsAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	spec := workload.DefaultSpec()
	spec.NumTables, spec.RowsPerTable = 1, 100
	tbl := workload.GenerateCorpus(spec).Tables[0]
	cs := DiscoverConstraints(tbl, 0.9)
	if tbl.NumRows() != 100 || len(cs) == 0 || CountViolations(tbl, cs) == 0 {
		t.Fatalf("%d rows, %d constraints, %d violations: the table exercises nothing",
			tbl.NumRows(), len(cs), CountViolations(tbl, cs))
	}
	if n := testing.AllocsPerRun(20, func() { CountViolations(tbl, cs) }); n > 35 {
		t.Errorf("CountViolations over %d constraints: %v allocations, want <= 35 (measured 33)", len(cs), n)
	}
}
