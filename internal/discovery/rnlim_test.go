package discovery

import (
	"testing"

	"golake/internal/metamodel"
	"golake/internal/table"
)

func TestRNLIMLabelsRelationships(t *testing.T) {
	// cities_a/cities_b equivalent; districts contained in cities_a;
	// numbers unrelated.
	citiesA, _ := table.ParseCSV("cities_a", "city\nberlin\nparis\nrome\nmadrid\nlisbon\n")
	citiesB, _ := table.ParseCSV("cities_b", "city\nberlin\nparis\nrome\nmadrid\nvienna\n")
	districts, _ := table.ParseCSV("districts", "city\nberlin\nparis\n")
	numbers, _ := table.ParseCSV("numbers", "n\n1\n2\n3\n")
	r := NewRNLIM()
	if err := r.Index([]*table.Table{citiesA, citiesB, districts, numbers}); err != nil {
		t.Fatal(err)
	}
	ref := func(t, c string) metamodel.ColumnRef { return metamodel.ColumnRef{Table: t, Column: c} }
	if got := r.Label(ref("cities_a", "city"), ref("cities_b", "city")); got != RelEquivalent {
		t.Errorf("cities_a~cities_b = %v, want equivalent", got)
	}
	if got := r.Label(ref("districts", "city"), ref("cities_a", "city")); got != RelContained {
		t.Errorf("districts~cities_a = %v, want contained", got)
	}
	if got := r.Label(ref("cities_a", "city"), ref("numbers", "n")); got != RelUnrelated {
		t.Errorf("cities~numbers = %v, want unrelated (type gate)", got)
	}
	if got := r.Label(ref("ghost", "x"), ref("cities_a", "city")); got != RelUnrelated {
		t.Errorf("unknown column = %v", got)
	}
}

func TestRNLIMRecoversGroundTruth(t *testing.T) {
	c := testCorpus(t)
	p, r := evalDiscoverer(t, NewRNLIM(), c, 3)
	if p < 0.9 || r < 0.9 {
		t.Errorf("RNLIM P@3/R@3 = %.2f/%.2f, want >= 0.9", p, r)
	}
}

func TestRNLIMExplainTable(t *testing.T) {
	a, _ := table.ParseCSV("a", "city,pop\nberlin,3600000\nparis,2100000\nrome,2800000\n")
	b, _ := table.ParseCSV("b", "city,pop\nberlin,3600000\nparis,2100000\nmadrid,3300000\n")
	r := NewRNLIM()
	if err := r.Index([]*table.Table{a, b}); err != nil {
		t.Fatal(err)
	}
	expl := r.ExplainTable(a, "b")
	if len(expl) == 0 {
		t.Fatal("no explanations")
	}
	foundCity := false
	for _, e := range expl {
		if e.A.Column == "city" && e.B.Column == "city" && e.Rel != RelUnrelated {
			foundCity = true
		}
	}
	if !foundCity {
		t.Errorf("city pair not explained: %+v", expl)
	}
}
