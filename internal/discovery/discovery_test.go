package discovery

import (
	"testing"

	"golake/internal/metamodel"
	"golake/internal/table"
	"golake/internal/workload"
)

// testCorpus is a small corpus shared by the discovery tests: 12 tables
// in 3 groups of 4; within a group tables are joinable and unionable.
func testCorpus(t *testing.T) *workload.Corpus {
	t.Helper()
	return workload.GenerateCorpus(workload.CorpusSpec{
		NumTables:    12,
		JoinGroups:   3,
		RowsPerTable: 80,
		ExtraCols:    1,
		KeyVocab:     120,
		KeySample:    70,
		NoiseRate:    0.01,
		Seed:         21,
	})
}

// evalDiscoverer indexes the corpus and measures top-k quality against
// the joinable ground truth.
func evalDiscoverer(t *testing.T, d Discoverer, c *workload.Corpus, k int) (p, r float64) {
	t.Helper()
	if err := d.Index(c.Tables); err != nil {
		t.Fatalf("%s Index: %v", d.Name(), err)
	}
	results := map[string][]string{}
	var queries []string
	for _, tbl := range c.Tables {
		queries = append(queries, tbl.Name)
		var names []string
		for _, ts := range d.RelatedTables(tbl, k) {
			names = append(names, ts.Table)
		}
		results[tbl.Name] = names
	}
	rel := func(q, cand string) bool { return c.Joinable[workload.NewPair(q, cand)] }
	tot := func(q string) int {
		n := 0
		for p := range c.Joinable {
			if p.A == q || p.B == q {
				n++
			}
		}
		return n
	}
	return workload.TopKQuality(queries, results, k, rel, tot)
}

func TestJOSIERecoversGroundTruth(t *testing.T) {
	c := testCorpus(t)
	p, r := evalDiscoverer(t, NewJOSIE(NewCatalog()), c, 3)
	if p < 0.95 || r < 0.95 {
		t.Errorf("JOSIE P@3/R@3 = %.2f/%.2f, want >= 0.95", p, r)
	}
}

func TestD3LRecoversGroundTruth(t *testing.T) {
	c := testCorpus(t)
	p, r := evalDiscoverer(t, NewD3L(NewCatalog()), c, 3)
	if p < 0.9 || r < 0.9 {
		t.Errorf("D3L P@3/R@3 = %.2f/%.2f, want >= 0.9", p, r)
	}
}

func TestJuneauRecoversGroundTruth(t *testing.T) {
	c := testCorpus(t)
	p, r := evalDiscoverer(t, NewJuneau(NewCatalog(), TaskAugment), c, 3)
	if p < 0.9 || r < 0.9 {
		t.Errorf("Juneau P@3/R@3 = %.2f/%.2f, want >= 0.9", p, r)
	}
}

func TestJOSIEJoinableColumnsExact(t *testing.T) {
	a, _ := table.ParseCSV("a", "k,v\nx,1\ny,2\nz,3\n")
	b, _ := table.ParseCSV("b", "kk,w\nx,9\ny,8\nq,7\n")
	cc, _ := table.ParseCSV("c", "kkk\nq\nr\ns\n")
	j := NewJOSIE(NewCatalog())
	if err := j.Index([]*table.Table{a, b, cc}); err != nil {
		t.Fatal(err)
	}
	got, err := j.JoinableColumns(a, "k", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].Ref.Table != "b" || got[0].Ref.Column != "kk" {
		t.Fatalf("JoinableColumns = %+v", got)
	}
	if got[0].Score != 2 {
		t.Errorf("overlap = %v, want 2 (exact)", got[0].Score)
	}
	if _, err := j.JoinableColumns(a, "ghost", 2); err == nil {
		t.Error("unknown column should error")
	}
}

func TestD3LTrainingImprovesOrKeepsQuality(t *testing.T) {
	c := testCorpus(t)
	d := NewD3L(NewCatalog())
	if err := d.Index(c.Tables); err != nil {
		t.Fatal(err)
	}
	// Build labeled pairs from ground truth: positive key-column pairs,
	// negative cross-group pairs.
	var pairs []LabeledPair
	names := c.TableNames()
	for i := 0; i < len(names); i++ {
		for jj := i + 1; jj < len(names); jj++ {
			a, b := names[i], names[jj]
			pairs = append(pairs, LabeledPair{
				A:       metamodel.ColumnRef{Table: a, Column: c.KeyColumn[a]},
				B:       metamodel.ColumnRef{Table: b, Column: c.KeyColumn[b]},
				Related: c.Joinable[workload.NewPair(a, b)],
			})
		}
	}
	n := d.Train(pairs, 40, 0.3)
	if n != len(pairs) {
		t.Fatalf("trained on %d pairs, want %d", n, len(pairs))
	}
	// Weights should have moved away from uniform.
	uniform := true
	for _, w := range d.Weights {
		if w != 1 {
			uniform = false
		}
	}
	if uniform {
		t.Error("training left weights uniform")
	}
	p, r := evalDiscovererNoIndex(t, d, c, 3)
	if p < 0.85 || r < 0.85 {
		t.Errorf("trained D3L P@3/R@3 = %.2f/%.2f", p, r)
	}
}

func evalDiscovererNoIndex(t *testing.T, d Discoverer, c *workload.Corpus, k int) (p, r float64) {
	t.Helper()
	results := map[string][]string{}
	var queries []string
	for _, tbl := range c.Tables {
		queries = append(queries, tbl.Name)
		var names []string
		for _, ts := range d.RelatedTables(tbl, k) {
			names = append(names, ts.Table)
		}
		results[tbl.Name] = names
	}
	rel := func(q, cand string) bool { return c.Joinable[workload.NewPair(q, cand)] }
	tot := func(q string) int {
		n := 0
		for pr := range c.Joinable {
			if pr.A == q || pr.B == q {
				n++
			}
		}
		return n
	}
	return workload.TopKQuality(queries, results, k, rel, tot)
}

func TestJuneauTaskWeighting(t *testing.T) {
	// Query table with nulls; candidate clean twin vs unrelated table.
	q, _ := table.ParseCSV("q", "k,v\na,1\nb,\nc,\n")
	clean, _ := table.ParseCSV("clean", "k,v\na,1\nb,2\nc,3\n")
	other, _ := table.ParseCSV("other", "zz,qq\nfoo,9\nbar,8\n")
	j := NewJuneau(NewCatalog(), TaskClean)
	if err := j.Index([]*table.Table{q, clean, other}); err != nil {
		t.Fatal(err)
	}
	got := j.RelatedTables(q, 2)
	if len(got) == 0 || got[0].Table != "clean" {
		t.Fatalf("TaskClean ranking = %+v", got)
	}
}

// A column name repeated within a table is a candidate key when any of
// its columns is one, whichever comes first, indexed or on a read path;
// its key set is then its last column's values, the ones the catalog
// holds. Only when no copy is a key does the table offer no key.
func TestJuneauKeyOfRepeatedColumnName(t *testing.T) {
	unique := []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10"}
	dup := []string{"1", "1", "2", "2", "3", "3", "4", "4", "5", "5"}
	build := func(name string, cols ...[]string) *table.Table {
		t.Helper()
		header := make([]string, len(cols))
		rows := make([][]string, len(cols[0]))
		for i, c := range cols {
			header[i] = "id"
			for r, v := range c {
				rows[r] = append(rows[r], v)
			}
		}
		tb, err := table.FromRows(name, header, rows)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	cand := build("cand", unique)
	cases := []struct {
		q    *table.Table
		want float64
	}{
		{build("keyFirst", unique, dup), 1},
		{build("keyLast", dup, unique), 1},
		{build("noKey", dup, dup), 0},
	}
	j := NewJuneau(NewCatalog(), TaskFeatures)
	indexed := []*table.Table{cand}
	for _, c := range cases {
		indexed = append(indexed, c.q)
	}
	if err := j.Index(indexed); err != nil {
		t.Fatal(err)
	}
	cp := j.profiles[j.cat.tableID("cand")]
	for _, c := range cases {
		if got := querySignals(j.profiles[j.cat.tableID(c.q.Name)], cp).keyMatch; got != c.want {
			t.Errorf("%s indexed: key match %v, want %v", c.q.Name, got, c.want)
		}
		unindexed := build(c.q.Name+"Read", c.q.Columns[0].Cells, c.q.Columns[1].Cells)
		qp := j.profileOf(unindexed, Profiles([]*table.Table{unindexed})[0], j.cat.dict.Lookup())
		if got := querySignals(qp, cp).keyMatch; got != c.want {
			t.Errorf("%s on a read path: key match %v, want %v", c.q.Name, got, c.want)
		}
	}
}
