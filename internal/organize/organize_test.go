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
	if got := c.Search(GroupUser, "owner", "ops-team"); len(got) != 1 || got[0] != "tables/users" {
		t.Errorf("Search = %v", got)
	}
	if got := c.Search(GroupUser, "owner", "nobody"); len(got) != 0 {
		t.Errorf("Search miss = %v", got)
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
	_, _ = c.Register("logs/clicks/2026-06-11")
	_, _ = c.Register("logs/clicks/2026-06-12")
	_, _ = c.Register("tables/users")
	got := c.Versions("logs/clicks")
	if len(got) != 2 {
		t.Fatalf("Versions = %v", got)
	}
	if got[0] != "logs/clicks/2026-06-11" {
		t.Errorf("first version = %q", got[0])
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
	a, _ := table.ParseCSV("a", "id,name\n1,x\n2,y\n")
	b, _ := table.ParseCSV("b", "id,name\n3,z\n4,w\n")
	c, _ := table.ParseCSV("c", "lat,lon,alt,speed\n1.0,2.0,3.0,4.0\n5.0,6.0,7.0,8.0\n")
	d := NewDSKNN()
	d.Add(a)
	d.Add(b)
	d.Add(c)
	edges := d.Graph()
	if len(edges) == 0 {
		t.Fatal("no similarity edges")
	}
	if edges[0].A != "a" || edges[0].B != "b" {
		t.Errorf("strongest edge = %+v, want a-b", edges[0])
	}
	for _, e := range edges {
		if (e.A == "c" || e.B == "c") && e.Sim > d.Similarity(d.features["a"], d.features["b"]) {
			t.Errorf("dissimilar dataset c ranked above twin pair: %+v", e)
		}
	}
}

func TestNavDAGBuildAndNavigate(t *testing.T) {
	corpus := workload.GenerateCorpus(workload.CorpusSpec{
		NumTables: 8, JoinGroups: 2, RowsPerTable: 60,
		ExtraCols: 0, KeyVocab: 80, KeySample: 50, Seed: 17,
	})
	d := NewNavDAG(4)
	root := d.Build(corpus.Tables)
	if root == nil || root.IsLeaf() {
		t.Fatal("no organization built")
	}
	// 8 tables x 3 cols = 24 leaves.
	if got := len(d.Leaves()); got != 24 {
		t.Fatalf("leaves = %d, want 24", got)
	}
	// Navigation ends at a leaf.
	path := d.Navigate("g00_key")
	if len(path) < 2 {
		t.Fatalf("path = %v", path)
	}
	last := path[len(path)-1]
	if !last.IsLeaf() {
		t.Error("navigation did not reach a leaf")
	}
	// Mean discovery probability must beat uniform random leaf choice.
	mp := d.MeanDiscoveryProbability()
	if mp <= 1.0/24 {
		t.Errorf("mean discovery probability = %v, not better than random", mp)
	}
}

func TestNavDAGDiscoveryProbabilitySums(t *testing.T) {
	a, _ := table.ParseCSV("a", "x,y\nfoo,1\nbar,2\n")
	d := NewNavDAG(2)
	d.Build([]*table.Table{a})
	var sum float64
	for _, leaf := range d.Leaves() {
		p := d.DiscoveryProbability(leaf)
		if p < 0 || p > 1 {
			t.Errorf("P(%s) = %v out of range", leaf, p)
		}
		sum += p
	}
	if sum <= 0 {
		t.Error("all discovery probabilities zero")
	}
	if got := d.DiscoveryProbability("ghost.col"); got != 0 {
		t.Errorf("unknown attribute probability = %v", got)
	}
}

func TestWorkflowGraphLineage(t *testing.T) {
	w := NewWorkflowGraph()
	if err := w.AddModule("clean", []string{"raw"}, []string{"cleaned"}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddModule("aggregate", []string{"cleaned"}, []string{"summary"}); err != nil {
		t.Fatal(err)
	}
	der := w.Derivations("raw")
	if len(der) != 2 || der[0] != "cleaned" || der[1] != "summary" {
		t.Errorf("Derivations = %v", der)
	}
	lin := w.Lineage("summary")
	if len(lin) != 2 || lin[0] != "cleaned" || lin[1] != "raw" {
		t.Errorf("Lineage = %v", lin)
	}
}

func TestWorkflowGraphProvenanceSimilarity(t *testing.T) {
	base, _ := table.ParseCSV("base", "a,b\n1,2\n3,4\n5,6\n7,8\n")
	nb := workload.GenerateNotebook(base, 3, 5)
	w := NewWorkflowGraph()
	if err := w.FromNotebook(nb); err != nil {
		t.Fatal(err)
	}
	// Adjacent versions share lineage.
	simAdjacent := w.ProvenanceSimilarity("base", "base_v1")
	simDistant := w.ProvenanceSimilarity("base", "base_v3")
	if simAdjacent <= simDistant {
		t.Errorf("adjacent sim %v should exceed distant sim %v", simAdjacent, simDistant)
	}
	if simAdjacent < 0.5 {
		t.Errorf("directly connected variables sim = %v, want >= 0.5", simAdjacent)
	}
	// Unrelated variables have zero similarity.
	if got := w.ProvenanceSimilarity("base", "unrelated"); got != 0 {
		t.Errorf("unrelated sim = %v", got)
	}
}

// Property: at every internal node, Markov transition probabilities
// over children sum to 1 for arbitrary query vectors.
func TestNavDAGTransitionProbabilitiesSum(t *testing.T) {
	corpus := workload.GenerateCorpus(workload.CorpusSpec{
		NumTables: 6, JoinGroups: 2, RowsPerTable: 40,
		ExtraCols: 1, KeyVocab: 60, KeySample: 40, Seed: 41,
	})
	d := NewNavDAG(3)
	root := d.Build(corpus.Tables)
	var walk func(n *NavNode)
	walk = func(n *NavNode) {
		if n.IsLeaf() {
			return
		}
		probs := transitionProbs(n.Vector, n.Children)
		var sum float64
		for _, p := range probs {
			if p < 0 || p > 1 {
				t.Fatalf("probability %v out of range at %s", p, n.ID)
			}
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("probabilities sum to %v at %s", sum, n.ID)
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
}
