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

func TestTablesToTriples(t *testing.T) {
	tbl := mustCSV(t, "t", "a,b\n1,x\n2,y\n")
	triples := TablesToTriples(tbl)
	if len(triples) != 4 {
		t.Fatalf("triples = %d, want 4", len(triples))
	}
	if triples[0].Subject != "t/0" || triples[0].Predicate != "a" || triples[0].Object != "1" {
		t.Errorf("first triple = %+v", triples[0])
	}
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

func TestCleanWithOracle(t *testing.T) {
	tbl := mustCSV(t, "geo", "city,country\nberlin,de\nberlin,de\nberlin,fr\nparis,fr\nparis,fr\n")
	constraints := DiscoverConstraints(tbl, 0.7)
	ranked := RankViolations(tbl, constraints)
	// Oracle confirms removal only of the bad country cell.
	oracle := func(tr Triple) bool {
		return tr.Predicate == "country" && tr.Object == "fr" && strings.HasPrefix(tr.Subject, "geo/2")
	}
	cleaned, removed := CleanWithOracle(tbl, ranked, oracle)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	col, _ := cleaned.Column("country")
	if col.Cells[2] != "" {
		t.Errorf("dirty cell not blanked: %q", col.Cells[2])
	}
	// Original untouched.
	orig, _ := tbl.Column("country")
	if orig.Cells[2] != "fr" {
		t.Error("original table mutated")
	}
}

func TestCleanWithOracleRejectsAll(t *testing.T) {
	tbl := mustCSV(t, "t", "a,b\n1,x\n1,y\n1,x\n")
	ranked := RankViolations(tbl, DiscoverConstraints(tbl, 0.5))
	_, removed := CleanWithOracle(tbl, ranked, func(Triple) bool { return false })
	if removed != 0 {
		t.Errorf("removed = %d with rejecting oracle", removed)
	}
}
