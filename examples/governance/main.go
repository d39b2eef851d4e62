// Governance: the concerns the Gartner critique says separate a data
// lake from a data swamp — roles and access control, provenance and
// lineage, constraint-based cleaning, and schema-evolution history.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"golake"
	"golake/internal/clean"
	"golake/internal/evolve"
	"golake/internal/table"
	"golake/internal/workload"
	"golake/lakeerr"
)

func main() {
	dir, err := os.MkdirTemp("", "golake-governance-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	lake, err := golake.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	lake.AddUser("dana", golake.RoleDataScientist)
	lake.AddUser("carl", golake.RoleCurator)
	lake.AddUser("greta", golake.RoleGovernance)

	// Ingest a slightly dirty dataset.
	geo := `station,city,country
s1,berlin,de
s2,berlin,de
s3,berlin,fr
s4,paris,fr
s5,paris,fr
s6,rome,it
`
	if _, err := lake.Ingest(ctx, "raw/stations.csv", []byte(geo), "sensor-feed", "dana"); err != nil {
		log.Fatal(err)
	}
	if _, err := lake.Maintain(ctx); err != nil {
		log.Fatal(err)
	}

	// Roles: curators annotate, governance audits, scientists cannot.
	if err := lake.Annotate(ctx, "carl", "raw/stations.csv", "city", "schema.org/City"); err != nil {
		log.Fatal(err)
	}
	if err := lake.Annotate(ctx, "dana", "raw/stations.csv", "city", "nope"); err != nil {
		// Failures carry typed codes: dispatch on the taxonomy, not
		// the message text.
		fmt.Printf("access control: [%s] %v\n", lakeerr.CodeOf(err), err)
	}

	// Derivation + lineage.
	stations, _ := lake.Poly.Rel.Table("stations")
	german := stations.Filter(func(row []string) bool { return row[2] == "de" })
	german.Name = "german_stations"
	if err := lake.Derive(ctx, "dana", "filter_de", []string{"raw/stations.csv"}, german); err != nil {
		log.Fatal(err)
	}
	up, _ := lake.Lineage(ctx, "german_stations")
	fmt.Println("lineage of german_stations:", up)

	// Governance audits who touched the raw data.
	if _, err := lake.QuerySQL(ctx, "dana", "SELECT city FROM rel:stations"); err != nil {
		log.Fatal(err)
	}
	events, err := lake.Audit(ctx, "greta", "raw/stations.csv")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit trail for raw/stations.csv: %d events (last: %s by %s)\n",
		len(events), events[len(events)-1].Kind, events[len(events)-1].User)

	// CLAMS-style cleaning: discover constraints, rank violating
	// triples, let a (scripted) curator confirm.
	tbl, _ := lake.Poly.Rel.Table("stations")
	constraints := clean.DiscoverConstraints(tbl, 0.7)
	ranked := clean.RankViolations(tbl, constraints)
	fmt.Printf("constraint violations found: %d candidate dirty triples\n", len(ranked))
	cleaned, removed := clean.CleanWithOracle(tbl, ranked, func(tr clean.Triple) bool {
		return tr.Predicate == "country" // curator: the country cell is wrong, not the city
	})
	fmt.Printf("cleaned %d cells; row 2 country now %q\n", removed, cell(cleaned, "country", 2))

	// Schema evolution: reconstruct the history of an evolving feed.
	vd := workload.GenerateVersions(workload.SchemaVersionSpec{Versions: 6, DocsPer: 8, Seed: 4})
	_, ops, err := evolve.History(vd.Versions)
	if err != nil {
		log.Fatal(err)
	}
	var lines []string
	for _, op := range ops {
		lines = append(lines, op.String())
	}
	fmt.Printf("schema evolution history (%d ops):\n  %s\n", len(ops), strings.Join(lines, "\n  "))
}

func cell(t *table.Table, col string, row int) string {
	c, err := t.Column(col)
	if err != nil || row >= c.Len() {
		return "?"
	}
	return c.Cells[row]
}
