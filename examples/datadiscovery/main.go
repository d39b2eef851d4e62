// Data discovery: the survey's Table 3 systems side by side on one
// synthetic open-data corpus with known joinability ground truth —
// which tables can augment a data-science training set, which columns
// join, which semantic domains the lake contains.
package main

import (
	"fmt"
	"log"

	"golake/internal/discovery"
	"golake/internal/enrich"
	"golake/internal/table"
	"golake/internal/workload"
)

func main() {
	// A corpus of 24 "open data" tables in 4 topical groups; tables in
	// one group share a key universe and schema.
	c := workload.GenerateCorpus(workload.CorpusSpec{
		NumTables: 24, JoinGroups: 4, RowsPerTable: 100,
		ExtraCols: 2, KeyVocab: 200, KeySample: 90, NoiseRate: 0.03, Seed: 77,
	})
	query := c.Tables[0]
	fmt.Printf("query table: %s (group %s)\n\n", query.Name, query.Meta["group"])

	// 1. Compare the discovery systems on the same query.
	for _, d := range discoverers() {
		if err := d.Index(c.Tables); err != nil {
			log.Fatal(err)
		}
		if dln, ok := d.(*discovery.DLN); ok {
			dln.Train(workload.JoinQueryLog(c, 0, 3))
		}
		res := d.RelatedTables(query, 3)
		fmt.Printf("%-8s top-3:", d.Name())
		for _, ts := range res {
			mark := " "
			if c.Joinable[workload.NewPair(query.Name, ts.Table)] {
				mark = "✓"
			}
			fmt.Printf("  %s%s(%.2f)", mark, ts.Table, ts.Score)
		}
		fmt.Println()
	}

	// 2. Column-level joinability with JOSIE (exact top-k overlap).
	josie := discovery.NewJOSIE()
	if err := josie.Index(c.Tables); err != nil {
		log.Fatal(err)
	}
	keyCol := c.KeyColumn[query.Name]
	matches, err := josie.JoinableColumns(query, keyCol, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncolumns joinable with %s.%s:\n", query.Name, keyCol)
	for _, m := range matches {
		fmt.Printf("  %-40s overlap=%.0f values\n", m.Ref, m.Score)
	}

	// 3. Juneau task search: find tables to augment a training set.
	juneau := discovery.NewJuneau(discovery.TaskAugment)
	if err := juneau.Index(c.Tables); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\naugmentation candidates (Juneau, task=augment):")
	for _, ts := range juneau.RelatedTables(query, 3) {
		fmt.Printf("  %-30s %.2f\n", ts.Table, ts.Score)
	}

	// 4. Semantic enrichment: what domains live in this lake?
	domains := enrich.D4(c.Tables[:8], enrich.DefaultD4Config())
	fmt.Printf("\nD4 discovered %d semantic domains in the first 8 tables:\n", len(domains))
	for _, d := range domains {
		terms := d.Terms
		if len(terms) > 4 {
			terms = terms[:4]
		}
		fmt.Printf("  %s: %d columns, terms like %v\n", d.Name, len(d.Columns), terms)
	}

	// 5. Homograph check on a hand-made ambiguity.
	fruit, _ := table.ParseCSV("fruit", "name\napple\npear\nplum\ngrape\n")
	brands, _ := table.ParseCSV("brands", "name\napple\nsamsung\nsony\nnokia\n")
	homs := enrich.DomainNet([]*table.Table{fruit, brands,
		mustCSV("fruit2", "n\npear\nplum\ngrape\nmelon\napple\n"),
		mustCSV("brands2", "n\nsamsung\nsony\nnokia\nlg\napple\n"),
	}, enrich.DefaultDomainNetConfig())
	fmt.Println("\nDomainNet homographs:")
	for _, h := range homs {
		fmt.Printf("  %q spans %d communities (%d attributes)\n", h.Value, h.Communities, len(h.Attributes))
	}
}

// discoverers instantiates the survey's Table 3 systems in survey
// order. The DLN instance is returned untrained; it learns from a join
// query log once the corpus is indexed.
func discoverers() []discovery.Discoverer {
	return []discovery.Discoverer{
		discovery.NewAurum(),
		discovery.NewJOSIE(),
		discovery.NewD3L(),
		discovery.NewJuneau(discovery.TaskAugment),
		discovery.NewPEXESO(),
		discovery.NewRNLIM(),
		discovery.NewDLN(),
	}
}

func mustCSV(name, csv string) *table.Table {
	t, err := table.ParseCSV(name, csv)
	if err != nil {
		log.Fatal(err)
	}
	return t
}
