package enrich

import (
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

func TestDiscoverRFDs(t *testing.T) {
	// city -> country holds except one violating row (Berlin/France).
	tbl := mustCSV(t, "geo", "city,country\nberlin,de\nberlin,de\nberlin,fr\nparis,fr\nparis,fr\nrome,it\n")
	rfds := DiscoverRFDs(tbl, 0.8)
	var dep *RFD
	for i := range rfds {
		if rfds[i].Lhs == "city" && rfds[i].Rhs == "country" {
			dep = &rfds[i]
		}
	}
	if dep == nil {
		t.Fatalf("city~>country not found: %+v", rfds)
	}
	// 5 of 6 rows consistent.
	if dep.Confidence < 0.83 || dep.Confidence > 0.84 {
		t.Errorf("confidence = %v, want ~0.833", dep.Confidence)
	}
	viol, err := RFDViolations(tbl, *dep)
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) != 1 || viol[0] != 2 {
		t.Errorf("violations = %v, want [2]", viol)
	}
}

func TestRFDStrictThresholdExcludesWeakDeps(t *testing.T) {
	tbl := mustCSV(t, "t", "a,b\n1,x\n1,y\n2,x\n2,y\n")
	// a->b holds for only half the rows per group.
	rfds := DiscoverRFDs(tbl, 0.9)
	for _, r := range rfds {
		if r.Lhs == "a" && r.Rhs == "b" {
			t.Errorf("weak dependency reported: %+v", r)
		}
	}
	if got := DiscoverRFDs(table.New("empty"), 0.5); got != nil {
		t.Errorf("empty table RFDs = %v", got)
	}
}

func TestRFDViolationsUnknownColumn(t *testing.T) {
	tbl := mustCSV(t, "t", "a,b\n1,x\n")
	if _, err := RFDViolations(tbl, RFD{Table: "t", Lhs: "ghost", Rhs: "b"}); err == nil {
		t.Error("unknown column should error")
	}
}
