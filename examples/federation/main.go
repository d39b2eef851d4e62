// Federation: heterogeneous data living in different member stores of
// the polystore — relational hotels, document reviews, the raw file
// listing — queried through one SQL dialect, then integrated:
// Constance-style schema matching clusters the columns that agree, and
// ALITE-style full disjunction merges the tables over those clusters.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"golake/internal/integrate"
	"golake/internal/query"
	"golake/internal/storage/polystore"
	"golake/internal/table"
)

const hotelsEU = `city,hotel,price
berlin,adlon,320
paris,lutetia,410
rome,hassler,380
`

const hotelsUS = `town,hotel,price
chicago,drake,290
boston,lenox,260
berlin,adlon,320
`

const reviews = `{"hotel":"adlon","stars":5,"text":"grand"}
{"hotel":"drake","stars":4,"text":"classic"}
{"hotel":"lutetia","stars":5,"text":"belle"}
`

func main() {
	dir, err := os.MkdirTemp("", "golake-federation-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	poly, err := polystore.New(dir)
	if err != nil {
		log.Fatal(err)
	}

	// Route each source to its natural store.
	ingest := func(path, data string) polystore.Placement {
		pl, err := poly.Ingest(path, []byte(data))
		if err != nil {
			log.Fatal(err)
		}
		return pl
	}
	fmt.Println("placements:")
	fmt.Printf("  %s -> %s\n", "hotels_eu.csv", ingest("raw/hotels_eu.csv", hotelsEU).Target)
	fmt.Printf("  %s -> %s\n", "hotels_us.csv", ingest("raw/hotels_us.csv", hotelsUS).Target)
	fmt.Printf("  %s -> %s\n", "reviews.jsonl", ingest("raw/reviews.jsonl", reviews).Target)

	// One language over all stores.
	ctx := context.Background()
	engine := query.NewEngine(poly)
	for _, sql := range []string{
		"SELECT hotel, price FROM rel:hotels_eu WHERE price > 350",
		"SELECT hotel, stars FROM doc:reviews WHERE stars >= 5",
		"SELECT path, format FROM file:raw/",
		"SELECT hotel FROM rel:hotels_eu, rel:hotels_us WHERE price >= 300",
	} {
		st, err := engine.Query(ctx, query.Request{SQL: sql, FanIn: 1})
		if err != nil {
			log.Fatal(err)
		}
		res, err := query.Collect(ctx, st)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n%s", sql, table.ToCSV(res))
	}

	// Constance-style schema matching of the two hotel sources:
	// columns that agree by name and values fall into one cluster.
	var tables []*table.Table
	for _, name := range []string{"hotels_eu", "hotels_us"} {
		t, err := poly.Rel.Table(name)
		if err != nil {
			log.Fatal(err)
		}
		tables = append(tables, t)
	}
	corrs := integrate.MatchAll(tables, integrate.DefaultMatchConfig())
	clusters := integrate.Cluster(tables, corrs)
	fmt.Println("\ncolumn clusters:")
	for _, cl := range clusters {
		fmt.Printf("  %v\n", cl)
	}

	// ALITE-style full disjunction preserves every tuple and connects
	// the ones that agree.
	fd := integrate.FullDisjunction(tables, clusters)
	fmt.Printf("full disjunction (%d rows):\n%s", fd.NumRows(), table.ToCSV(fd))
}
