package core

import (
	"fmt"
	"strings"

	"golake/internal/discovery"
	"golake/internal/enrich"
	"golake/internal/evolve"
	"golake/internal/explore"
	"golake/internal/extract"
	"golake/internal/integrate"
	"golake/internal/metamodel"
	"golake/internal/organize"
	"golake/internal/provenance"
	"golake/internal/query"
	"golake/internal/table"
	"golake/internal/workload"
)

// Tier is a functional tier of the Fig. 2 architecture.
type Tier string

// The three functional tiers.
const (
	TierIngestion   Tier = "ingestion"
	TierMaintenance Tier = "maintenance"
	TierExploration Tier = "exploration"
)

// FunctionEntry reifies one row group of Table 1: a function, the tier
// it belongs to, the surveyed systems it covers, the package
// implementing it here, and a runnable exercise of the implementation.
type FunctionEntry struct {
	Tier     Tier
	Function string
	Systems  []string
	Package  string
	// Run exercises the function on a small fixture and returns a
	// one-line result summary; a test runs every entry.
	Run func() (string, error)
}

// Registry returns the Table 1 classification with runnable entries —
// tiers (when), functions (what), systems (who), implementations
// (how). The order follows the survey's Table 1. Each Run calls the
// implementation a lake path calls, and Systems names the systems that
// implementation follows.
func Registry() []FunctionEntry {
	fixture := func() *workload.Corpus {
		return workload.GenerateCorpus(workload.CorpusSpec{
			NumTables: 8, JoinGroups: 2, RowsPerTable: 50,
			ExtraCols: 1, KeyVocab: 80, KeySample: 45, Seed: 5,
		})
	}
	// demo extracts a small CSV's metadata as ingest does: parsed once,
	// then described.
	demo := func() (*extract.Metadata, error) {
		const csv = "id,city\n1,berlin\n2,paris\n"
		t, err := table.ParseCSV("demo", csv)
		if err != nil {
			return nil, err
		}
		return extract.ExtractParsed("demo.csv", []byte(csv), t)
	}
	// geo holds city ~> country and country ~> city with one violating
	// row in twenty, so both dependencies reach the maintenance pass's
	// confidence.
	geo := func() (*table.Table, error) {
		return table.ParseCSV("geo", "city,country\n"+strings.Repeat("berlin,de\n", 10)+
			"berlin,fr\n"+strings.Repeat("paris,fr\n", 9))
	}
	return []FunctionEntry{
		{
			Tier: TierIngestion, Function: "metadata extraction",
			Systems: []string{"GEMMS", "DATAMARAN"},
			Package: "internal/extract",
			Run: func() (string, error) {
				md, err := demo()
				if err != nil {
					return "", err
				}
				gl := workload.GenerateLog(workload.LogSpec{Templates: 3, Records: 120, NoiseRate: 0.05, Seed: 2})
				tpls := extract.Datamaran(gl.Content, extract.DefaultDatamaranConfig())
				return fmt.Sprintf("schema=%d cols, log templates=%d", len(md.Schema), len(tpls)), nil
			},
		},
		{
			Tier: TierIngestion, Function: "metadata modeling",
			Systems: []string{"GEMMS", "HANDLE"},
			Package: "internal/metamodel",
			Run: func() (string, error) {
				md, err := demo()
				if err != nil {
					return "", err
				}
				obj := metamodel.FromExtraction(md)
				g := metamodel.NewGEMMS()
				g.Register(obj)
				h := metamodel.NewHANDLE()
				if err := h.AddData(obj.ID, ZoneRaw); err != nil {
					return "", err
				}
				return fmt.Sprintf("gemms objects=%d, handle raw zone=%d",
					len(g.IDs()), len(h.DataInZone(ZoneRaw))), nil
			},
		},
		{
			Tier: TierMaintenance, Function: "dataset organization",
			Systems: []string{"GOODS", "DS-Prox/DS-kNN"},
			Package: "internal/organize",
			Run: func() (string, error) {
				knn := organize.NewDSKNN()
				cat := organize.NewCatalog()
				for _, t := range fixture().Tables {
					knn.Add(t)
					cat.Register("raw/" + t.Name + ".csv")
				}
				return fmt.Sprintf("dsknn categories=%d, catalog entries=%d",
					len(knn.Categories()), len(cat.List())), nil
			},
		},
		{
			Tier: TierMaintenance, Function: "related dataset discovery",
			Systems: []string{"JOSIE", "D3L", "Juneau"},
			Package: "internal/discovery",
			Run: func() (string, error) {
				tables := fixture().Tables
				j := discovery.NewJOSIE(discovery.NewCatalog())
				if err := j.Index(tables); err != nil {
					return "", err
				}
				res := j.RelatedTables(tables[0], 3)
				return fmt.Sprintf("josie top-3 for %s: %v", tables[0].Name, res), nil
			},
		},
		{
			Tier: TierMaintenance, Function: "data integration",
			Systems: []string{"Constance", "ALITE"},
			Package: "internal/integrate",
			Run: func() (string, error) {
				a, err := table.ParseCSV("a", "city,price\nberlin,10\nparis,20\n")
				if err != nil {
					return "", err
				}
				b, err := table.ParseCSV("b", "city,rating\nberlin,4\nrome,5\n")
				if err != nil {
					return "", err
				}
				tables := []*table.Table{a, b}
				clusters := integrate.Cluster(tables, integrate.MatchAll(tables, integrate.DefaultMatchConfig()))
				fd := integrate.FullDisjunction(tables, clusters)
				return fmt.Sprintf("clusters=%d, full disjunction=%d rows", len(clusters), fd.NumRows()), nil
			},
		},
		{
			Tier: TierMaintenance, Function: "metadata enrichment",
			Systems: []string{"Constance"},
			Package: "internal/enrich",
			Run: func() (string, error) {
				t, err := geo()
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("rfds=%v", enrich.DiscoverRFDs(t, rfdMinConfidence)), nil
			},
		},
		{
			Tier: TierMaintenance, Function: "data cleaning",
			Systems: []string{"CLAMS"},
			Package: "internal/clean",
			Run: func() (string, error) {
				t, err := geo()
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("violations=%d", cleanViolations(t)), nil
			},
		},
		{
			Tier: TierMaintenance, Function: "schema evolution",
			Systems: []string{"Klettke et al."},
			Package: "internal/evolve",
			Run: func() (string, error) {
				vd := workload.GenerateVersions(workload.SchemaVersionSpec{Versions: 5, DocsPer: 6, Seed: 3})
				_, ops, err := evolve.History(vd.Versions)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("versions=%d, detected ops=%d", len(vd.Versions), len(ops)), nil
			},
		},
		{
			Tier: TierMaintenance, Function: "data provenance",
			Systems: []string{"IBM tool", "Suriarachchi et al.", "GOODS", "CoreDB", "Juneau"},
			Package: "internal/provenance",
			Run: func() (string, error) {
				tr := provenance.NewTracker(nil)
				tr.Inject(provenance.IngestEvent("raw", "flume", "ops"))
				tr.Inject(provenance.DeriveEvents("job", "spark", "ops", []string{"raw"}, "out")...)
				up, err := tr.Upstream("out")
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("events=%d, upstream(out)=%v", len(tr.Events()), up), nil
			},
		},
		{
			Tier: TierExploration, Function: "query-driven data discovery",
			Systems: []string{"JOSIE", "D3L", "Juneau"},
			Package: "internal/explore",
			Run: func() (string, error) {
				c := fixture()
				ex := explore.NewExplorer()
				if err := ex.Index(c.Tables); err != nil {
					return "", err
				}
				q := c.Tables[0]
				reqs := []explore.Request{
					{Mode: explore.ModeJoinColumn, Query: q, Column: c.KeyColumn[q.Name], K: 3},
					{Mode: explore.ModePopulate, Query: q, K: 3},
					{Mode: explore.ModeTask, Query: q, Task: discovery.TaskAugment, K: 3},
					{Mode: explore.ModeTask, Query: q, Task: discovery.TaskFeatures, K: 3},
					{Mode: explore.ModeTask, Query: q, Task: discovery.TaskClean, K: 3},
				}
				counts := make([]int, len(reqs))
				for i, req := range reqs {
					res, err := ex.Explore(req)
					if err != nil {
						return "", err
					}
					counts[i] = len(res)
				}
				return fmt.Sprintf("answers for %s (join-column, populate, augment, features, clean): %v",
					q.Name, counts), nil
			},
		},
		{
			Tier: TierExploration, Function: "heterogeneous data querying",
			Systems: []string{"Constance", "CoreDB", "Ontario", "Squerall"},
			Package: "internal/query",
			Run: func() (string, error) {
				if _, err := query.Parse("SELECT a FROM rel:t WHERE x = 'y' LIMIT 3"); err != nil {
					return "", err
				}
				return "parser + federated engine over 4 member stores", nil
			},
		},
	}
}
