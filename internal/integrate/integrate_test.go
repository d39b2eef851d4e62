package integrate

import (
	"strings"
	"testing"
	"testing/quick"

	"golake/internal/metamodel"
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

func TestMatchColumnsSignals(t *testing.T) {
	a := &table.Column{Name: "city", Kind: table.KindString, Cells: []string{"berlin", "paris"}}
	b := &table.Column{Name: "city", Kind: table.KindString, Cells: []string{"berlin", "rome"}}
	c := &table.Column{Name: "amount", Kind: table.KindFloat, Cells: []string{"1.5", "2.5"}}
	cfg := DefaultMatchConfig()
	if sim := MatchColumns(a, b, cfg); sim < 0.5 {
		t.Errorf("same-name overlapping columns sim = %v", sim)
	}
	// Type gate: string vs numeric never match.
	if sim := MatchColumns(a, c, cfg); sim != 0 {
		t.Errorf("cross-type sim = %v, want 0", sim)
	}
}

func TestMatchFindsCorrespondences(t *testing.T) {
	a := mustCSV(t, "hotels_a", "city,price\nberlin,100\nparis,150\nrome,90\n")
	b := mustCSV(t, "hotels_b", "town,price\nberlin,110\nparis,140\nlyon,80\n")
	corrs := Match(a, b, DefaultMatchConfig())
	// price<->price must match; city<->town via instances.
	foundPrice, foundCity := false, false
	for _, c := range corrs {
		if c.A.Column == "price" && c.B.Column == "price" {
			foundPrice = true
		}
		if c.A.Column == "city" && c.B.Column == "town" {
			foundCity = true
		}
	}
	if !foundPrice {
		t.Errorf("price correspondence missing: %+v", corrs)
	}
	if !foundCity {
		t.Errorf("city/town correspondence missing: %+v", corrs)
	}
}

func TestClusterConnectedComponents(t *testing.T) {
	a := mustCSV(t, "a", "city,price\nberlin,1\n")
	b := mustCSV(t, "b", "town,cost\nberlin,1\n")
	corrs := []Correspondence{
		{A: metamodel.ColumnRef{Table: "a", Column: "city"}, B: metamodel.ColumnRef{Table: "b", Column: "town"}, Sim: 0.9},
	}
	clusters := Cluster([]*table.Table{a, b}, corrs)
	// {a.city,b.town}, {a.price}, {b.cost} -> 3 clusters.
	if len(clusters) != 3 {
		t.Fatalf("clusters = %d: %v", len(clusters), clusters)
	}
	var sizes []int
	for _, c := range clusters {
		sizes = append(sizes, len(c))
	}
	two := 0
	for _, s := range sizes {
		if s == 2 {
			two++
		}
	}
	if two != 1 {
		t.Errorf("cluster sizes = %v, want exactly one pair", sizes)
	}
}

func TestFullDisjunctionTextbook(t *testing.T) {
	// Classic 3-table FD example: chains connect via shared attributes.
	r := mustCSV(t, "r", "a,b\n1,2\n")
	s := mustCSV(t, "s", "b,c\n2,3\n")
	u := mustCSV(t, "u", "c,d\n9,10\n")
	tables := []*table.Table{r, s, u}
	// Align columns by name across tables.
	var corrs []Correspondence
	corrs = append(corrs,
		Correspondence{A: metamodel.ColumnRef{Table: "r", Column: "b"}, B: metamodel.ColumnRef{Table: "s", Column: "b"}, Sim: 1},
		Correspondence{A: metamodel.ColumnRef{Table: "s", Column: "c"}, B: metamodel.ColumnRef{Table: "u", Column: "c"}, Sim: 1},
	)
	clusters := Cluster(tables, corrs)
	fd := FullDisjunction(tables, clusters)
	// Expected: {a:1,b:2,c:3} (r joins s), {c:9,d:10} (u dangles).
	if fd.NumRows() != 2 {
		t.Fatalf("FD rows = %d, want 2:\n%s", fd.NumRows(), table.ToCSV(fd))
	}
	csv := table.ToCSV(fd)
	if !strings.Contains(csv, "1,2,3,") {
		t.Errorf("joined tuple missing:\n%s", csv)
	}
	if !strings.Contains(csv, ",,9,10") {
		t.Errorf("dangling tuple missing:\n%s", csv)
	}
}

func TestFullDisjunctionTransitiveChain(t *testing.T) {
	// Chained joins across three tables must connect transitively.
	r := mustCSV(t, "r", "a,b\nx,k1\n")
	s := mustCSV(t, "s", "b,c\nk1,k2\n")
	u := mustCSV(t, "u", "c,d\nk2,z\n")
	tables := []*table.Table{r, s, u}
	corrs := []Correspondence{
		{A: metamodel.ColumnRef{Table: "r", Column: "b"}, B: metamodel.ColumnRef{Table: "s", Column: "b"}, Sim: 1},
		{A: metamodel.ColumnRef{Table: "s", Column: "c"}, B: metamodel.ColumnRef{Table: "u", Column: "c"}, Sim: 1},
	}
	fd := FullDisjunction(tables, Cluster(tables, corrs))
	if fd.NumRows() != 1 {
		t.Fatalf("FD rows = %d, want 1 fully chained tuple:\n%s", fd.NumRows(), table.ToCSV(fd))
	}
	row := fd.Row(0)
	joined := strings.Join(row, ",")
	for _, want := range []string{"x", "k1", "k2", "z"} {
		if !strings.Contains(joined, want) {
			t.Errorf("chained tuple lacks %q: %v", want, row)
		}
	}
}

func TestFullDisjunctionConflictingTuplesStaySeparate(t *testing.T) {
	a := mustCSV(t, "a", "k,v\n1,x\n")
	b := mustCSV(t, "b", "k,v\n1,y\n") // same key, conflicting v
	tables := []*table.Table{a, b}
	corrs := []Correspondence{
		{A: metamodel.ColumnRef{Table: "a", Column: "k"}, B: metamodel.ColumnRef{Table: "b", Column: "k"}, Sim: 1},
		{A: metamodel.ColumnRef{Table: "a", Column: "v"}, B: metamodel.ColumnRef{Table: "b", Column: "v"}, Sim: 1},
	}
	fd := FullDisjunction(tables, Cluster(tables, corrs))
	if fd.NumRows() != 2 {
		t.Errorf("conflicting tuples merged: %d rows\n%s", fd.NumRows(), table.ToCSV(fd))
	}
}

func TestFullDisjunctionSubsumptionDedupe(t *testing.T) {
	a := mustCSV(t, "a", "k,v\n1,x\n")
	b := mustCSV(t, "b", "k\n1\n") // strictly less information
	tables := []*table.Table{a, b}
	corrs := []Correspondence{
		{A: metamodel.ColumnRef{Table: "a", Column: "k"}, B: metamodel.ColumnRef{Table: "b", Column: "k"}, Sim: 1},
	}
	fd := FullDisjunction(tables, Cluster(tables, corrs))
	if fd.NumRows() != 1 {
		t.Errorf("subsumed tuple kept: %d rows\n%s", fd.NumRows(), table.ToCSV(fd))
	}
}

// Property: the FD always contains at least as much information as the
// largest input (no tuple vanishes), and never exceeds the sum of
// input rows.
func TestFullDisjunctionCardinalityBounds(t *testing.T) {
	f := func(ks []uint8) bool {
		if len(ks) == 0 {
			return true
		}
		if len(ks) > 12 {
			ks = ks[:12]
		}
		rowsA := "k,v\n"
		rowsB := "k,w\n"
		for i, k := range ks {
			if i%2 == 0 {
				rowsA += itoa(int(k%8)) + ",a" + itoa(i) + "\n"
			} else {
				rowsB += itoa(int(k%8)) + ",b" + itoa(i) + "\n"
			}
		}
		a, err := table.ParseCSV("a", rowsA)
		if err != nil {
			return false
		}
		b, err := table.ParseCSV("b", rowsB)
		if err != nil {
			return false
		}
		tables := []*table.Table{a, b}
		corrs := []Correspondence{
			{A: metamodel.ColumnRef{Table: "a", Column: "k"}, B: metamodel.ColumnRef{Table: "b", Column: "k"}, Sim: 1},
		}
		fd := FullDisjunction(tables, Cluster(tables, corrs))
		total := a.NumRows() + b.NumRows()
		return fd.NumRows() >= 1 && fd.NumRows() <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}
