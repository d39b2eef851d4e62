// Data discovery: the survey's Table 3 systems side by side on one
// synthetic open-data corpus with known joinability ground truth —
// which tables relate to a query table, which columns join with its
// key, and which tables can augment a data-science training set.
package main

import (
	"fmt"
	"log"

	"golake/internal/discovery"
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
	josie := discovery.NewJOSIE(discovery.NewCatalog())
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
	juneau := discovery.NewJuneau(discovery.NewCatalog(), discovery.TaskAugment)
	if err := juneau.Index(c.Tables); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\naugmentation candidates (Juneau, task=augment):")
	for _, ts := range juneau.RelatedTables(query, 3) {
		fmt.Printf("  %-30s %.2f\n", ts.Table, ts.Score)
	}
}

// discoverers instantiates the survey's Table 3 systems in survey
// order. The DLN instance is returned untrained; it learns from a join
// query log once the corpus is indexed.
func discoverers() []discovery.Discoverer {
	return []discovery.Discoverer{
		discovery.NewAurum(),
		discovery.NewJOSIE(discovery.NewCatalog()),
		discovery.NewD3L(discovery.NewCatalog()),
		discovery.NewJuneau(discovery.NewCatalog(), discovery.TaskAugment),
		discovery.NewPEXESO(),
		discovery.NewRNLIM(),
		discovery.NewDLN(),
	}
}
