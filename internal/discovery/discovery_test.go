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

func TestAurumRecoversGroundTruth(t *testing.T) {
	c := testCorpus(t)
	p, r := evalDiscoverer(t, NewAurum(), c, 3)
	if p < 0.9 || r < 0.9 {
		t.Errorf("Aurum P@3/R@3 = %.2f/%.2f, want >= 0.9", p, r)
	}
}

func TestD3LRecoversGroundTruth(t *testing.T) {
	c := testCorpus(t)
	p, r := evalDiscoverer(t, NewD3L(NewCatalog()), c, 3)
	if p < 0.9 || r < 0.9 {
		t.Errorf("D3L P@3/R@3 = %.2f/%.2f, want >= 0.9", p, r)
	}
}

func TestPEXESORecoversGroundTruth(t *testing.T) {
	c := testCorpus(t)
	p, r := evalDiscoverer(t, NewPEXESO(), c, 3)
	if p < 0.85 || r < 0.85 {
		t.Errorf("PEXESO P@3/R@3 = %.2f/%.2f, want >= 0.85", p, r)
	}
}

func TestJuneauRecoversGroundTruth(t *testing.T) {
	c := testCorpus(t)
	p, r := evalDiscoverer(t, NewJuneau(NewCatalog(), TaskAugment), c, 3)
	if p < 0.9 || r < 0.9 {
		t.Errorf("Juneau P@3/R@3 = %.2f/%.2f, want >= 0.9", p, r)
	}
}

func TestDLNRecoversGroundTruthAfterTraining(t *testing.T) {
	c := testCorpus(t)
	d := NewDLN()
	if err := d.Index(c.Tables); err != nil {
		t.Fatal(err)
	}
	n := d.Train(workload.JoinQueryLog(c, 0, 3))
	if n == 0 {
		t.Fatal("no training examples")
	}
	results := map[string][]string{}
	var queries []string
	for _, tbl := range c.Tables {
		queries = append(queries, tbl.Name)
		var names []string
		for _, ts := range d.RelatedTables(tbl, 3) {
			names = append(names, ts.Table)
		}
		results[tbl.Name] = names
	}
	rel := func(q, cand string) bool { return c.Joinable[workload.NewPair(q, cand)] }
	tot := func(q string) int { return 3 }
	p, r := workload.TopKQuality(queries, results, 3, rel, tot)
	if p < 0.8 || r < 0.8 {
		t.Errorf("DLN P@3/R@3 = %.2f/%.2f, want >= 0.8", p, r)
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

func TestAurumPKFKDetection(t *testing.T) {
	users, _ := table.ParseCSV("users", "user_id,city\nu1,berlin\nu2,paris\nu3,rome\nu4,lyon\n")
	orders, _ := table.ParseCSV("orders", "oid,user_id\no1,u1\no2,u1\no3,u2\no4,u3\n")
	a := NewAurum()
	a.MinJaccard = 0.3
	if err := a.Index([]*table.Table{users, orders}); err != nil {
		t.Fatal(err)
	}
	ref := metamodel.ColumnRef{Table: "users", Column: "user_id"}
	pkfk := a.EKG().Neighbors(ref, "pkfk", 0)
	if len(pkfk) == 0 {
		t.Fatal("no pkfk edge detected")
	}
	other := metamodel.Other(pkfk[0], ref)
	if other.Table != "orders" || other.Column != "user_id" {
		t.Errorf("pkfk partner = %v", other)
	}
}

func TestAurumIncrementalUpdateThreshold(t *testing.T) {
	t1, _ := table.ParseCSV("t1", "k\na\nb\nc\nd\ne\nf\ng\nh\ni\nj\n")
	a := NewAurum()
	if err := a.Index([]*table.Table{t1}); err != nil {
		t.Fatal(err)
	}
	// Small drift: one value changes -> below threshold, no re-index.
	small := &table.Column{Name: "k", Cells: []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "zz"}}
	changed, err := a.Update("t1", small)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("small drift should not trigger re-index")
	}
	// Large drift: all values change.
	big := &table.Column{Name: "k", Cells: []string{"q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10"}}
	changed, err = a.Update("t1", big)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("large drift should trigger re-index")
	}
}

func TestAurumNameEdges(t *testing.T) {
	a1, _ := table.ParseCSV("a1", "customer_name,x\nfoo,1\nbar,2\n")
	a2, _ := table.ParseCSV("a2", "customer_name,y\nzzz,3\nqqq,4\n")
	a := NewAurum()
	if err := a.Index([]*table.Table{a1, a2}); err != nil {
		t.Fatal(err)
	}
	ref := metamodel.ColumnRef{Table: "a1", Column: "customer_name"}
	nbs := a.EKG().Neighbors(ref, "name", 0)
	if len(nbs) == 0 {
		t.Fatal("identical column names should create a name edge")
	}
	if got := metamodel.Other(nbs[0], ref); got.Table != "a2" {
		t.Errorf("name neighbor = %v", got)
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

func TestJuneauProvenanceSignal(t *testing.T) {
	q, _ := table.ParseCSV("q", "a\n1\n2\n")
	x, _ := table.ParseCSV("x", "b\n7\n8\n")
	y, _ := table.ParseCSV("y", "c\n9\n10\n")
	j := NewJuneau(NewCatalog(), TaskClean)
	j.ProvenanceSim = func(a, b string) float64 {
		if (a == "q" && b == "x") || (a == "x" && b == "q") {
			return 1
		}
		return 0
	}
	if err := j.Index([]*table.Table{q, x, y}); err != nil {
		t.Fatal(err)
	}
	got := j.RelatedTables(q, 2)
	if len(got) == 0 || got[0].Table != "x" {
		t.Fatalf("provenance-boosted ranking = %+v", got)
	}
}

func TestDLNMetadataVsEnsemble(t *testing.T) {
	c := testCorpus(t)
	d := NewDLN()
	if err := d.Index(c.Tables); err != nil {
		t.Fatal(err)
	}
	d.Train(workload.JoinQueryLog(c, 0, 3))
	// A ground-truth joinable key pair should score high on both
	// classifiers; an unrelated extra-column pair should score lower on
	// the ensemble.
	names := c.TableNames()
	var a, b string
	for p := range c.Joinable {
		a, b = p.A, p.B
		break
	}
	pos := d.RelatedProbability(
		metamodel.ColumnRef{Table: a, Column: c.KeyColumn[a]},
		metamodel.ColumnRef{Table: b, Column: c.KeyColumn[b]})
	var negA, negB string
	for _, n1 := range names {
		for _, n2 := range names {
			if n1 != n2 && !c.Joinable[workload.NewPair(n1, n2)] {
				negA, negB = n1, n2
			}
		}
	}
	neg := d.RelatedProbability(
		metamodel.ColumnRef{Table: negA, Column: c.KeyColumn[negA]},
		metamodel.ColumnRef{Table: negB, Column: c.KeyColumn[negB]})
	if pos <= neg {
		t.Errorf("positive pair prob %.3f <= negative pair prob %.3f", pos, neg)
	}
	if pos < 0.5 {
		t.Errorf("positive pair prob = %.3f, want >= 0.5", pos)
	}
	if got := d.MetadataOnlyProbability(
		metamodel.ColumnRef{Table: a, Column: c.KeyColumn[a]},
		metamodel.ColumnRef{Table: b, Column: c.KeyColumn[b]}); got < 0.5 {
		t.Errorf("metadata-only positive prob = %.3f", got)
	}
}

func TestDLNUntrainedReturnsNothing(t *testing.T) {
	c := testCorpus(t)
	d := NewDLN()
	_ = d.Index(c.Tables)
	if got := d.RelatedTables(c.Tables[0], 3); got != nil {
		t.Errorf("untrained DLN returned %v", got)
	}
}

func TestPEXESOSemanticMatch(t *testing.T) {
	// Two columns with disjoint values drawn from the same vocabulary
	// context should still be joinable semantically after exact-match
	// columns establish co-occurrence.
	a, _ := table.ParseCSV("a", "color\nred\ngreen\nblue\n")
	b, _ := table.ParseCSV("b", "colour\nred\ngreen\nblue\n")
	cc, _ := table.ParseCSV("c", "city\nberlin\nparis\nrome\n")
	p := NewPEXESO()
	if err := p.Index([]*table.Table{a, b, cc}); err != nil {
		t.Fatal(err)
	}
	got := p.RelatedTables(a, 2)
	if len(got) == 0 || got[0].Table != "b" {
		t.Fatalf("PEXESO ranking = %+v", got)
	}
	cols, err := p.JoinableColumns(a, "color", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) == 0 || cols[0].Ref.Table != "b" {
		t.Errorf("JoinableColumns = %+v", cols)
	}
}

// Property: PEXESO's grid-pruned joinability equals brute-force
// joinability (the grid is an optimization, never a semantics change).
func TestPEXESOGridMatchesBruteForce(t *testing.T) {
	c := workload.GenerateCorpus(workload.CorpusSpec{
		NumTables: 6, JoinGroups: 2, RowsPerTable: 40,
		ExtraCols: 0, KeyVocab: 60, KeySample: 40, Seed: 61,
	})
	p := NewPEXESO()
	if err := p.Index(c.Tables); err != nil {
		t.Fatal(err)
	}
	// Brute force: same model, no grid (neighborhood = all cells).
	brute := func(q, cand *pexColumn) float64 {
		if len(q.vectors) == 0 {
			return 0
		}
		matched := 0
		for i, v := range q.values {
			if _, ok := cand.exact[v]; ok {
				matched++
				continue
			}
			found := false
			for _, cv := range cand.vectors {
				if cosine(q.vectors[i], cv) >= p.Tau {
					found = true
					break
				}
			}
			if found {
				matched++
			}
		}
		return float64(matched) / float64(len(q.values))
	}
	cols := make([]*pexColumn, 0, len(p.columns))
	for _, col := range p.columns {
		cols = append(cols, col)
	}
	for i := 0; i < len(cols); i++ {
		for j := 0; j < len(cols); j++ {
			if i == j {
				continue
			}
			a, b := cols[i], cols[j]
			g := p.Joinability(a, b)
			bf := brute(a, b)
			// The grid prunes by adjacency: it may miss matches landing
			// in far cells (cosine close but different early dims), so
			// grid <= brute; exact-value matches guarantee equality for
			// identical columns.
			if g > bf+1e-9 {
				t.Fatalf("grid joinability %v > brute force %v for %s/%s", g, bf, a.ref, b.ref)
			}
		}
	}
}
