package clean

import (
	"strings"
	"testing"

	"golake/internal/table"
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
