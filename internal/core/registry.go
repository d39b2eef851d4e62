package core

import (
	"fmt"

	"golake/internal/clean"
	"golake/internal/discovery"
	"golake/internal/enrich"
	"golake/internal/evolve"
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
// (how). The order follows the survey's Table 1.
func Registry() []FunctionEntry {
	fixture := func() []*table.Table {
		c := workload.GenerateCorpus(workload.CorpusSpec{
			NumTables: 8, JoinGroups: 2, RowsPerTable: 50,
			ExtraCols: 1, KeyVocab: 80, KeySample: 45, Seed: 5,
		})
		return c.Tables
	}
	return []FunctionEntry{
		{
			Tier: TierIngestion, Function: "metadata extraction",
			Systems: []string{"GEMMS", "DATAMARAN", "Skluma"},
			Package: "internal/extract",
			Run: func() (string, error) {
				md, err := extract.Extract("demo.csv", []byte("id,city\n1,berlin\n2,paris\n"))
				if err != nil {
					return "", err
				}
				gl := workload.GenerateLog(workload.LogSpec{Templates: 3, Records: 120, NoiseRate: 0.05, Seed: 2})
				tpls := extract.Datamaran(gl.Content, extract.DefaultDatamaranConfig())
				sk, err := extract.Skluma("demo.csv", []byte("id,city\n1,berlin\n2,paris\n"))
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("schema=%d cols, log templates=%d, keywords=%d",
					len(md.Schema), len(tpls), len(sk.Keywords)), nil
			},
		},
		{
			Tier: TierIngestion, Function: "metadata modeling",
			Systems: []string{"GEMMS", "HANDLE", "data vault", "Aurum EKG"},
			Package: "internal/metamodel",
			Run: func() (string, error) {
				md, err := extract.Extract("demo.csv", []byte("id,city\n1,berlin\n2,paris\n"))
				if err != nil {
					return "", err
				}
				obj := metamodel.FromExtraction(md)
				g := metamodel.NewGEMMS()
				g.Register(obj)
				h := metamodel.NewHANDLE()
				if err := h.ImportGEMMS(obj, ZoneRaw); err != nil {
					return "", err
				}
				v := metamodel.NewVault()
				t, _ := table.ParseCSV("demo", "id,city\n1,berlin\n2,paris\n")
				if err := v.LoadTable(t, "id"); err != nil {
					return "", err
				}
				return fmt.Sprintf("gemms objects=%d, handle nodes=%d, vault tables=%d",
					len(g.IDs()), h.Graph().NumNodes(), len(v.ToRelational())), nil
			},
		},
		{
			Tier: TierMaintenance, Function: "dataset organization",
			Systems: []string{"GOODS", "DS-Prox/DS-kNN", "Nargesian et al.", "Juneau"},
			Package: "internal/organize",
			Run: func() (string, error) {
				tables := fixture()
				knn := organize.NewDSKNN()
				for _, t := range tables {
					knn.Add(t)
				}
				nav := organize.NewNavDAG(4)
				nav.Build(tables)
				return fmt.Sprintf("dsknn categories=%d, navdag leaves=%d, P(find)=%.2f",
					len(knn.Categories()), len(nav.Leaves()), nav.MeanDiscoveryProbability()), nil
			},
		},
		{
			Tier: TierMaintenance, Function: "related dataset discovery",
			Systems: []string{"Aurum", "JOSIE", "D3L", "Juneau", "PEXESO", "RNLIM", "DLN"},
			Package: "internal/discovery",
			Run: func() (string, error) {
				tables := fixture()
				j := discovery.NewJOSIE()
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
				a, _ := table.ParseCSV("a", "city,price\nberlin,10\nparis,20\n")
				b, _ := table.ParseCSV("b", "city,rating\nberlin,4\nrome,5\n")
				tables := []*table.Table{a, b}
				clusters := integrate.Cluster(tables, integrate.MatchAll(tables, integrate.DefaultMatchConfig()))
				fd := integrate.FullDisjunction(tables, clusters)
				return fmt.Sprintf("clusters=%d, full disjunction=%d rows", len(clusters), fd.NumRows()), nil
			},
		},
		{
			Tier: TierMaintenance, Function: "metadata enrichment",
			Systems: []string{"CoreDB", "D4", "DomainNet", "Constance", "GOODS"},
			Package: "internal/enrich",
			Run: func() (string, error) {
				tables := fixture()
				domains := enrich.D4(tables, enrich.DefaultD4Config())
				f := enrich.ExtractFeatures("The customer ordered from Berlin Plant today", nil)
				return fmt.Sprintf("d4 domains=%d, features keywords=%d entities=%d",
					len(domains), len(f.Keywords), len(f.NamedEntities)), nil
			},
		},
		{
			Tier: TierMaintenance, Function: "data cleaning",
			Systems: []string{"CLAMS", "Constance", "Auto-Validate"},
			Package: "internal/clean",
			Run: func() (string, error) {
				t, _ := table.ParseCSV("geo", "city,country\nberlin,de\nberlin,de\nberlin,fr\nparis,fr\n")
				ranked := clean.RankViolations(t, clean.DiscoverConstraints(t, 0.7))
				rule := clean.InferRule([]string{"a-1", "b-2", "c-3"}, 0.01)
				return fmt.Sprintf("violations=%d, rule patterns=%d", len(ranked), len(rule.Patterns)), nil
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
				tr.Ingest("raw", "flume", "ops")
				if err := tr.Derive("job", "spark", "ops", []string{"raw"}, "out"); err != nil {
					return "", err
				}
				up, err := tr.Upstream("out")
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("events=%d, upstream(out)=%v", len(tr.Events()), up), nil
			},
		},
		{
			Tier: TierExploration, Function: "query-driven data discovery",
			Systems: []string{"JOSIE", "D3L", "Juneau", "Aurum"},
			Package: "internal/explore",
			Run: func() (string, error) {
				tables := fixture()
				a := discovery.NewAurum()
				if err := a.Index(tables); err != nil {
					return "", err
				}
				res := a.RelatedTables(tables[0], 3)
				return fmt.Sprintf("aurum top-3: %v (ekg %d cols, %d edges)",
					res, a.EKG().NumColumns(), a.EKG().NumEdges()), nil
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
