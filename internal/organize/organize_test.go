package organize

import (
	"fmt"
	"testing"

	"golake/internal/storage/polystore"
	"golake/internal/table"
	"golake/internal/workload"
)

// place ingests a small CSV at each path into p.
func place(t *testing.T, p *polystore.Poly, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if _, err := p.Ingest(id, []byte("k,v\n1,2\n")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCatalogReadsPlacements(t *testing.T) {
	p, _ := polystore.New("")
	c := NewCatalog(p)
	place(t, p, "tables/users", "logs/clicks/2026-06-12", "logs/clicks/2026-06-11")
	e, ok := c.Entry("tables/users")
	if !ok || e != (CatalogEntry{ID: "tables/users", Cluster: "tables/users"}) {
		t.Fatalf("Entry = %+v, %v", e, ok)
	}
	if e, ok := c.Entry("ghost"); ok {
		t.Errorf("Entry of an uncataloged dataset = %+v, true", e)
	}
	if got := c.List(); fmt.Sprint(got) != "[logs/clicks/2026-06-11 logs/clicks/2026-06-12 tables/users]" {
		t.Errorf("List = %v, want sorted IDs", got)
	}
	if err := p.Remove("logs/clicks/2026-06-11"); err != nil {
		t.Fatal(err)
	}
	if got := c.List(); fmt.Sprint(got) != "[logs/clicks/2026-06-12 tables/users]" {
		t.Errorf("List after Remove = %v", got)
	}
	if e, ok := c.Entry("logs/clicks/2026-06-11"); ok {
		t.Errorf("Entry of a removed dataset = %+v, true", e)
	}
}

func TestCatalogVersionClustering(t *testing.T) {
	p, _ := polystore.New("")
	c := NewCatalog(p)
	for _, id := range []string{"logs/clicks/2026-06-11", "logs/clicks/2026-06-12"} {
		place(t, p, id)
		if e, ok := c.Entry(id); !ok || e.Cluster != "logs/clicks" {
			t.Errorf("Entry(%s) = %+v, %v; want cluster logs/clicks", id, e, ok)
		}
	}
	// Non-generation paths cluster to themselves.
	if ClusterOf("tables/users") != "tables/users" {
		t.Errorf("ClusterOf(users) = %q", ClusterOf("tables/users"))
	}
	if ClusterOf("a/b/20260612") != "a/b" {
		t.Errorf("ClusterOf(dated) = %q", ClusterOf("a/b/20260612"))
	}
}

func TestDSKNNGroupsSimilarDatasets(t *testing.T) {
	corpus := workload.GenerateCorpus(workload.CorpusSpec{
		NumTables: 9, JoinGroups: 3, RowsPerTable: 60,
		ExtraCols: 0, KeyVocab: 90, KeySample: 50, Seed: 13,
	})
	d := NewDSKNN()
	for _, tbl := range corpus.Tables {
		d.Add(tbl)
	}
	// Tables in the same corpus group share schema and should land in
	// the same category.
	byGroup := map[int]map[int]bool{}
	for _, tbl := range corpus.Tables {
		g := corpus.GroupOf[tbl.Name]
		if byGroup[g] == nil {
			byGroup[g] = map[int]bool{}
		}
		byGroup[g][d.Category(tbl.Name)] = true
	}
	for g, cats := range byGroup {
		if len(cats) != 1 {
			t.Errorf("corpus group %d split across categories %v", g, cats)
		}
	}
	// Different groups get different categories.
	cats := d.Categories()
	if len(cats) != 3 {
		t.Errorf("categories = %d, want 3", len(cats))
	}
	if d.Category("ghost") != -1 {
		t.Error("unknown dataset should be -1")
	}
}

func TestDSKNNGraphEdges(t *testing.T) {
	// The strongest edge of the similarity graph DS-kNN votes over joins
	// the twin schemas; the dissimilar dataset's edges are weaker.
	a, _ := table.ParseCSV("a", "id,name\n1,x\n2,y\n")
	b, _ := table.ParseCSV("b", "id,name\n3,z\n4,w\n")
	c, _ := table.ParseCSV("c", "lat,lon,alt,speed\n1.0,2.0,3.0,4.0\n5.0,6.0,7.0,8.0\n")
	d := NewDSKNN()
	d.Add(a)
	d.Add(b)
	d.Add(c)
	twins := refSimilarity(featuresOf(d, "a"), featuresOf(d, "b"))
	if twins < d.MinSim {
		t.Fatalf("twin similarity %v below MinSim %v", twins, d.MinSim)
	}
	for _, other := range []string{"a", "b"} {
		if sim := refSimilarity(featuresOf(d, other), featuresOf(d, "c")); sim >= twins {
			t.Errorf("dissimilar dataset c: similarity to %s %v >= twins' %v", other, sim, twins)
		}
	}
}

// Category returns the assigned category of a dataset (-1 if unknown).
func (d *DSKNN) Category(name string) int {
	c, ok := d.categories[name]
	if !ok {
		return -1
	}
	return c
}
