package core

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"golake/internal/discovery"
	"golake/internal/explore"
	"golake/internal/persist"
	"golake/internal/table"
	"golake/internal/workload"
)

// A table ingested after the last maintenance pass is not indexed, so
// every read of it profiles it under the explorer's shared lock. Those
// reads must write no shared state — no dictionary, no memoised token
// vector, no hash-parameter cache — and agree with each other. Run with
// -race; CI runs it repeatedly.
func TestConcurrentExploreOfUnmaintainedTable(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	c := ingestCorpus(t, l)
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	// Half its values are a corpus key column's, half have never been
	// seen by any index or embedding.
	base := c.Tables[0]
	key := c.KeyColumn[base.Name]
	col, err := base.Column(key)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(key + ",note\n")
	for i, v := range col.Cells[:30] {
		fmt.Fprintf(&sb, "%s,unseen remark %d\n", v, i)
	}
	if _, err := l.Ingest(ctx, "raw/latecomer.csv", []byte(sb.String()), "generator", "dana"); err != nil {
		t.Fatal(err)
	}
	q, err := l.Poly.Rel.Table("latecomer")
	if err != nil {
		t.Fatal(err)
	}
	reads := []func() ([]explore.Result, error){
		func() ([]explore.Result, error) { return l.RelatedTables(ctx, "dana", "latecomer", 3) },
		func() ([]explore.Result, error) {
			return l.Explore(ctx, "dana", explore.Request{Mode: explore.ModePopulate, Query: q, K: 3})
		},
		func() ([]explore.Result, error) {
			return l.Explore(ctx, "dana", explore.Request{Mode: explore.ModeTask, Query: q, Task: discovery.TaskFeatures, K: 3})
		},
	}
	const workers = 8
	got := make([][]explore.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = reads[w%len(reads)]()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("reader %d: %v", w, errs[w])
		}
		if first := w % len(reads); !reflect.DeepEqual(got[w], got[first]) {
			t.Errorf("reader %d = %v, reader %d of the same read = %v", w, got[w], first, got[first])
		}
	}
	if len(got[0]) == 0 {
		t.Error("RelatedTables found nothing for a table sharing a key column")
	}
}

// Populate, task and join-column exploration of one indexed table on a
// maintained 200-table lake (the default corpus spec): 111 allocations
// (Go 1.24). Indexed columns' sets and band hashes are read from the
// index and its column catalog; D3L and JOSIE find, score and attribute
// candidates by column slot, into per-call slices indexed by table id,
// D3L's and Juneau's (with their query probes) taken from pools, where
// a fresh set per call took 122;
// an overlap query counts in pooled counters and appends into one result
// slice per call; populate reads column names in place and asks JOSIE
// by table. With populate asking JOSIE with a pinned copy of each table
// it took 123; with "table.column" candidate keys sorted as strings,
// string-keyed score maps and a counter slice per overlap query as well,
// 207; with D3L estimating every candidate, 296; with JOSIE rebuilding a
// query column's set per call as well, 430; with string-keyed overlap
// counts, a slice of similarities per table and reflective sorts too,
// 1 160.
func TestExploreAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	spec := workload.DefaultSpec()
	spec.NumTables = 200
	corpus := workload.GenerateCorpus(spec)
	l, err := Open(t.TempDir(), WithPersistence(persist.NewMemory()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AddUser("dana", RoleDataScientist)
	ctx := context.Background()
	for _, tb := range corpus.Tables {
		if _, err := l.Ingest(ctx, "raw/"+tb.Name+".csv", []byte(table.ToCSV(tb)), "generator", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	next := 0
	n := testing.AllocsPerRun(20, func() {
		q := corpus.Tables[next%len(corpus.Tables)]
		next += 7
		for _, req := range []explore.Request{
			{Mode: explore.ModePopulate, Query: q, K: 5},
			{Mode: explore.ModeTask, Query: q, Task: discovery.TaskAugment, K: 5},
			{Mode: explore.ModeJoinColumn, Query: q, Column: corpus.KeyColumn[q.Name], K: 5},
		} {
			if res, err := l.Explore(ctx, "dana", req); err != nil || len(res) == 0 {
				t.Fatalf("Explore mode %d of %s = %v, %v", req.Mode, q.Name, res, err)
			}
		}
	})
	if n > 118 {
		t.Errorf("populate + task + join-column Explore on %d tables: %v allocations, want <= 118", len(corpus.Tables), n)
	}
}

// Column names may contain dots. The indexes attribute a candidate
// column to its table by slot, so "price.usd" of invoices is a column
// of invoices, not of a table "invoices.price"; a phantom table there
// made populate read a table the corpus does not hold and panic.
func TestExploreDottedColumnNames(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	names := []string{"orders", "invoices", "quotes"}
	for i, name := range names {
		var sb strings.Builder
		sb.WriteString("id,price.usd,city\n")
		for r := 0; r < 30; r++ {
			fmt.Fprintf(&sb, "%d,%d.%02d,city%d\n", r+i, 10+r, r, r%7)
		}
		if _, err := l.Ingest(ctx, "raw/"+name+".csv", []byte(sb.String()), "erp", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	known := func(where string, res []explore.Result) {
		t.Helper()
		if len(res) == 0 {
			t.Errorf("%s: no answer", where)
		}
		for _, r := range res {
			if r.Table != "invoices" && r.Table != "quotes" {
				t.Errorf("%s: answer %q is not another ingested table", where, r.Table)
			}
		}
	}
	res, err := l.RelatedTables(ctx, "dana", "orders", 5)
	if err != nil {
		t.Fatal(err)
	}
	known("Lake.RelatedTables", res)
	q, err := l.Poly.Rel.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	res, err = l.Explore(ctx, "dana", explore.Request{Mode: explore.ModeJoinColumn, Query: q, Column: "price.usd", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	known("join-column on price.usd", res)

	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	for _, c := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/related?table=orders&k=5", ""},
		{http.MethodPost, "/v1/explore", `{"mode":"populate","table":"orders","k":5}`},
		{http.MethodPost, "/v1/explore", `{"mode":"join-column","table":"orders","column":"price.usd","k":5}`},
	} {
		resp, body := do(t, srv, c.method, c.path, "dana", c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s %s = %d: %s", c.method, c.path, c.body, resp.StatusCode, body)
		}
		var got []explore.Result
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		known(c.method+" "+c.path+" "+c.body, got)
	}
}
