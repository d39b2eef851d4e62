package organize

import (
	"errors"
	"testing"
	"time"

	"golake/internal/table"
	"golake/internal/workload"
)

func fixedClock() func() time.Time {
	t0 := time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)
	return func() time.Time { return t0 }
}

func TestCatalogRegisterAnnotateSearch(t *testing.T) {
	c := NewCatalog(fixedClock())
	if _, err := c.Register("logs/clicks/2026-06-11"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("logs/clicks/2026-06-12"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("tables/users"); err != nil {
		t.Fatal(err)
	}
	if err := c.Annotate("tables/users", GroupUser, "owner", "ops-team"); err != nil {
		t.Fatal(err)
	}
	if err := c.Annotate("tables/users", GroupContent, "rows", "1000"); err != nil {
		t.Fatal(err)
	}
	e, err := c.Entry("tables/users")
	if err != nil || e.Groups[GroupUser]["owner"] != "ops-team" {
		t.Fatalf("Entry = %+v, %v", e, err)
	}
	if err := c.Annotate("ghost", GroupBasic, "k", "v"); !errors.Is(err, ErrNoEntry) {
		t.Errorf("Annotate missing = %v", err)
	}
	if got := c.List(); len(got) != 3 {
		t.Errorf("List = %v", got)
	}
}

func TestCatalogVersionClustering(t *testing.T) {
	c := NewCatalog(fixedClock())
	for _, id := range []string{"logs/clicks/2026-06-11", "logs/clicks/2026-06-12"} {
		if e, err := c.Register(id); err != nil || e.Cluster != "logs/clicks" {
			t.Fatalf("Register(%s) = %+v, %v; want cluster logs/clicks", id, e, err)
		}
		if e, err := c.Entry(id); err != nil || e.Cluster != "logs/clicks" {
			t.Errorf("Entry(%s) = %+v, %v; want cluster logs/clicks", id, e, err)
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
	twins := d.Similarity(featuresOf(d, "a"), featuresOf(d, "b"))
	if twins < d.MinSim {
		t.Fatalf("twin similarity %v below MinSim %v", twins, d.MinSim)
	}
	for _, other := range []string{"a", "b"} {
		if sim := d.Similarity(featuresOf(d, other), featuresOf(d, "c")); sim >= twins {
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
