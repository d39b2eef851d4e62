package core

import (
	"context"
	"fmt"
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
// maintained 200-table lake (the default corpus spec): about 300
// allocations (Go 1.24). Indexed columns' sets and signatures are read
// from the index, D3L sums its per-table similarities in place, and an
// overlap query counts in one slice. With JOSIE rebuilding a query
// column's set per call it took 430; with string-keyed overlap counts,
// a slice of similarities per table and reflective sorts as well, 1 160.
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
	if n > 380 {
		t.Errorf("populate + task + join-column Explore on %d tables: %v allocations, want <= 380", len(corpus.Tables), n)
	}
}
