package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"golake/internal/discovery"
	"golake/internal/explore"
	"golake/internal/table"
	"golake/internal/workload"
	"golake/lakeerr"
)

func testLake(t *testing.T) *Lake {
	t.Helper()
	t0 := time.Date(2026, 6, 12, 12, 0, 0, 0, time.UTC)
	var n atomic.Int64 // the lake reads its clock from concurrent ingests and passes
	l, err := Open(t.TempDir(), WithClock(func() time.Time {
		return t0.Add(time.Duration(n.Add(1)) * time.Second)
	}))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	l.AddUser("carl", RoleCurator)
	l.AddUser("gov", RoleGovernance)
	return l
}

func ingestCorpus(t *testing.T, l *Lake) *workload.Corpus {
	t.Helper()
	c := workload.GenerateCorpus(workload.CorpusSpec{
		NumTables: 8, JoinGroups: 2, RowsPerTable: 60,
		ExtraCols: 1, KeyVocab: 80, KeySample: 50, Seed: 31,
	})
	for _, tbl := range c.Tables {
		if _, err := l.Ingest(context.Background(), "raw/"+tbl.Name+".csv", []byte(table.ToCSV(tbl)), "generator", "dana"); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestIngestFullWorkflow(t *testing.T) {
	l := testLake(t)
	res, err := l.Ingest(context.Background(), "raw/orders.csv", []byte("id,total\n1,10\n2,20\n"), "erp", "dana")
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.TableName != "orders" {
		t.Errorf("placement = %+v", res.Placement)
	}
	// GEMMS has the object.
	obj, err := l.GEMMS.Object("raw/orders.csv")
	if err != nil || obj.Attributes["total"] == "" {
		t.Errorf("GEMMS object = %+v, %v", obj, err)
	}
	// The content metadata (rows, format, ...) is GEMMS's.
	if obj != nil && obj.Properties["rows"] != "2" {
		t.Errorf("GEMMS properties = %v", obj.Properties)
	}
	// HANDLE has it in the raw zone.
	if z, err := l.Handle.Zone("raw/orders.csv"); err != nil || z != ZoneRaw {
		t.Errorf("zone = %q, %v", z, err)
	}
	if got := l.Handle.DataInZone(ZoneRaw); len(got) != 1 {
		t.Errorf("raw zone = %v", got)
	}
	// The catalog has its entry.
	if e, ok := l.Catalog.Entry("raw/orders.csv"); !ok || e.Cluster != "raw/orders.csv" {
		t.Errorf("catalog = %+v, %v", e, ok)
	}
	// Provenance ingest event, with the source the catalog no longer
	// duplicates.
	if log := l.Tracker.AccessLog("raw/orders.csv"); len(log) != 1 || log[0].System != "erp" {
		t.Errorf("provenance log = %+v", log)
	}
}

func TestMaintainAndExplore(t *testing.T) {
	l := testLake(t)
	c := ingestCorpus(t, l)
	// Exploring before maintenance fails.
	if _, err := l.RelatedTables(context.Background(), "dana", c.Tables[0].Name, 3); !errors.Is(err, ErrNotMaintained) {
		t.Errorf("pre-maintenance explore = %v", err)
	}
	rep, err := l.Maintain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tables != 8 {
		t.Errorf("maintained tables = %d", rep.Tables)
	}
	if len(rep.Categories) != 2 {
		t.Errorf("categories = %v", rep.Categories)
	}
	// Exploration finds ground-truth related tables.
	res, err := l.RelatedTables(context.Background(), "dana", c.Tables[0].Name, 3)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, r := range res {
		if r.Via == "populate" && c.Joinable[workload.NewPair(c.Tables[0].Name, r.Table)] {
			hits++
		}
	}
	if hits < 2 {
		t.Errorf("explore quality: %+v", res)
	}
	// Task search works too.
	if _, err := l.TaskSearch(context.Background(), "dana", c.Tables[0].Name, discovery.TaskAugment, 3); err != nil {
		t.Errorf("TaskSearch: %v", err)
	}
	// Zones promoted.
	if got := l.Handle.DataInZone(ZoneCurated); len(got) != 8 {
		t.Errorf("curated zone = %d datasets", len(got))
	}
}

func TestAccessControl(t *testing.T) {
	l := testLake(t)
	ingestCorpus(t, l)
	if _, err := l.Maintain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Unknown user cannot query.
	if _, err := l.QuerySQL(context.Background(), "mallory", "SELECT * FROM file:raw/"); !errors.Is(err, ErrNoSuchUser) {
		t.Errorf("unknown user query = %v", err)
	}
	// Data scientist cannot audit.
	if _, err := l.Audit(context.Background(), "dana", "raw/x"); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("non-governance audit = %v", err)
	}
	// Governance can audit.
	if _, err := l.Audit(context.Background(), "gov", "raw/x"); err != nil {
		t.Errorf("governance audit = %v", err)
	}
	// Only curators annotate.
	if err := l.Annotate(context.Background(), "dana", "raw/x", "", "term"); !errors.Is(err, ErrNotAuthorized) {
		t.Errorf("non-curator annotate = %v", err)
	}
}

func TestQuerySQLRecordsProvenance(t *testing.T) {
	l := testLake(t)
	if _, err := l.Ingest(context.Background(), "raw/orders.csv", []byte("id,total\n1,10\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	res, err := l.QuerySQL(context.Background(), "dana", "SELECT id FROM rel:orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Errorf("rows = %d", res.NumRows())
	}
	// "orders" is not a provenance entity (the path is), so the query
	// event lands only if entity known; ensure no panic and audit path
	// works end to end.
	log, err := l.Audit(context.Background(), "gov", "raw/orders.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Error("no provenance for ingested dataset")
	}
}

func TestSwampCheck(t *testing.T) {
	l := testLake(t)
	if _, err := l.Ingest(context.Background(), "raw/good.csv", []byte("a,b\n1,2\n"), "src", "dana"); err != nil {
		t.Fatal(err)
	}
	// A binary blob yields no schema: swamp candidate.
	if _, err := l.Ingest(context.Background(), "raw/blob.bin", []byte{0xff, 0xfe, 0x01}, "src", "dana"); err != nil {
		t.Fatal(err)
	}
	rep, err := l.SwampAudit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Datasets != 2 || rep.WithMetadata != 1 {
		t.Errorf("swamp report = %+v", rep)
	}
	if rep.Healthy() {
		t.Error("lake with metadata-less blob should be unhealthy")
	}
	if len(rep.Swamp) != 1 || rep.Swamp[0] != "raw/blob.bin" {
		t.Errorf("swamp list = %v", rep.Swamp)
	}
}

func TestDeriveAndLineage(t *testing.T) {
	l := testLake(t)
	if _, err := l.Ingest(context.Background(), "raw/orders.csv", []byte("id,total\n1,10\n2,30\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	derived, _ := table.ParseCSV("big_orders", "id,total\n2,30\n")
	if err := l.Derive(context.Background(), "dana", "filter_big", []string{"raw/orders.csv"}, derived); err != nil {
		t.Fatal(err)
	}
	up, err := l.Lineage(context.Background(), "big_orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 1 || up[0] != "raw/orders.csv" {
		t.Errorf("lineage = %v", up)
	}
	if !l.Poly.Rel.Has("big_orders") {
		t.Error("derived table not stored")
	}
	// Unknown user cannot derive.
	if err := l.Derive(context.Background(), "mallory", "x", nil, derived); !errors.Is(err, ErrNoSuchUser) {
		t.Errorf("unknown derive = %v", err)
	}
}

func TestRegistryRunsEveryFunction(t *testing.T) {
	entries := Registry()
	if len(entries) != 11 {
		t.Fatalf("registry entries = %d, want 11 (the functions of Table 1)", len(entries))
	}
	tiers := map[Tier]int{}
	for _, e := range entries {
		tiers[e.Tier]++
		out, err := e.Run()
		if err != nil {
			t.Errorf("%s/%s failed: %v", e.Tier, e.Function, err)
		}
		if out == "" {
			t.Errorf("%s/%s returned empty summary", e.Tier, e.Function)
		}
		if len(e.Systems) == 0 || e.Package == "" {
			t.Errorf("%s/%s lacks classification data", e.Tier, e.Function)
		}
	}
	if tiers[TierIngestion] != 2 || tiers[TierMaintenance] != 7 || tiers[TierExploration] != 2 {
		t.Errorf("tier distribution = %v, want 2/7/2 as in Table 1", tiers)
	}
}

func TestIngestUnparseableStillStored(t *testing.T) {
	l := testLake(t)
	res, err := l.Ingest(context.Background(), "raw/bad.csv", []byte("a,b\n1\n"), "src", "dana")
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.Target != "file" {
		t.Errorf("placement = %+v", res.Placement)
	}
	if _, err := l.Poly.Files.Get("raw/bad.csv"); err != nil {
		t.Error("raw bytes lost")
	}
}

// trippingCtx reports cancellation only after trip Err() calls,
// deterministically simulating a context canceled mid-operation.
type trippingCtx struct {
	context.Context
	calls int
	trip  int
}

func (c *trippingCtx) Err() error {
	c.calls++
	if c.calls > c.trip {
		return context.Canceled
	}
	return nil
}

func TestMaintainCanceledMidFlight(t *testing.T) {
	l := testLake(t)
	ingestCorpus(t, l)
	ctx := &trippingCtx{Context: context.Background(), trip: 3}
	if _, err := l.Maintain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight Maintain = %v, want canceled", err)
	}
	// The pass never completed, so the lake still refuses exploration.
	if !l.Stale() {
		t.Error("aborted Maintain should leave the lake stale")
	}
	if _, err := l.Explore(context.Background(), "dana", explore.Request{}); !errors.Is(err, ErrNotMaintained) {
		t.Errorf("explore after aborted Maintain = %v", err)
	}
}

func TestQuerySQLCanceledMidFlight(t *testing.T) {
	l := testLake(t)
	if _, err := l.Ingest(context.Background(), "raw/orders.csv", []byte("id,total\n1,10\n2,20\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	// Cancel during the merge loop, after the role check passed.
	ctx := &trippingCtx{Context: context.Background(), trip: 1}
	_, err := l.QuerySQL(ctx, "dana", "SELECT id FROM rel:orders")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight QuerySQL = %v, want canceled", err)
	}
	if !lakeerr.IsUnavailable(err) {
		t.Errorf("canceled query code = %v", lakeerr.CodeOf(err))
	}
	// A pre-canceled context also aborts.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.QuerySQL(pre, "dana", "SELECT id FROM rel:orders"); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled QuerySQL = %v", err)
	}
	if _, err := l.Maintain(pre); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled Maintain = %v", err)
	}
}

func TestIngestBatch(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	res, err := l.IngestBatch(ctx, "dana", []IngestItem{
		{Path: "raw/a.csv", Data: []byte("x,y\n1,2\n"), Source: "s"},
		{Path: "raw/b.csv", Data: []byte("x,z\n1,3\n"), Source: "s"},
	})
	if err != nil || len(res) != 2 {
		t.Fatalf("batch = %d results, %v", len(res), err)
	}
	// A duplicate mid-batch stops at the conflict, keeping the prefix.
	res, err = l.IngestBatch(ctx, "dana", []IngestItem{
		{Path: "raw/c.csv", Data: []byte("x\n1\n"), Source: "s"},
		{Path: "raw/a.csv", Data: []byte("x\n1\n"), Source: "s"},
		{Path: "raw/d.csv", Data: []byte("x\n1\n"), Source: "s"},
	})
	if !lakeerr.IsConflict(err) || !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate batch err = %v", err)
	}
	if len(res) != 1 || res[0].Placement.Path != "raw/c.csv" {
		t.Errorf("batch prefix = %+v", res)
	}
	// A canceled context ingests nothing.
	pre, cancel := context.WithCancel(ctx)
	cancel()
	res, err = l.IngestBatch(pre, "dana", []IngestItem{{Path: "raw/e.csv", Data: []byte("x\n1\n")}})
	if len(res) != 0 || !lakeerr.IsUnavailable(err) {
		t.Errorf("canceled batch = %d results, %v", len(res), err)
	}
}

func TestMaintainGenerations(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	if !l.Stale() {
		t.Error("fresh lake should be stale (never maintained)")
	}
	if _, err := l.Ingest(ctx, "raw/a.csv", []byte("x,y\n1,2\n"), "s", "dana"); err != nil {
		t.Fatal(err)
	}
	rep, err := l.Maintain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stale || l.Stale() {
		t.Errorf("maintained lake reports stale (rep=%v lake=%v)", rep.Stale, l.Stale())
	}
	if rep.Generation != 1 {
		t.Errorf("generation = %d", rep.Generation)
	}
	// New ingest marks the lake stale again until the next pass.
	if _, err := l.Ingest(ctx, "raw/b.csv", []byte("x,z\n1,3\n"), "s", "dana"); err != nil {
		t.Fatal(err)
	}
	if !l.Stale() {
		t.Error("ingest after Maintain should mark the lake stale")
	}
	if rep, err = l.Maintain(ctx); err != nil || rep.Stale {
		t.Errorf("second pass = %+v, %v", rep, err)
	}
}

func TestMaintainSafeUnderConcurrentIngest(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	ingestCorpus(t, l)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if _, err := l.Ingest(ctx, fmt.Sprintf("raw/conc%d.csv", i), []byte("x,y\n1,2\n"), "s", "dana"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// Concurrent passes serialize; racing ingests either land in the
	// snapshot or flip the staleness flag — never vanish.
	for i := 0; i < 3; i++ {
		if _, err := l.Maintain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rep, err := l.Maintain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stale || l.Stale() {
		t.Error("final pass after ingests quiesced should not be stale")
	}
	if rep.Tables != 28 {
		t.Errorf("final pass tables = %d, want 28", rep.Tables)
	}
}

func TestOpenOptions(t *testing.T) {
	ctx := context.Background()
	l, err := Open(t.TempDir(), WithMaxResults(2))
	if err != nil {
		t.Fatal(err)
	}
	l.AddUser("dana", RoleDataScientist)
	if _, err := l.Ingest(ctx, "raw/nums.csv", []byte("n\n1\n2\n3\n4\n5\n"), "s", "dana"); err != nil {
		t.Fatal(err)
	}
	res, err := l.QuerySQL(ctx, "dana", "SELECT n FROM rel:nums")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Errorf("WithMaxResults rows = %d, want 2", res.NumRows())
	}
}

func TestTypedErrorTaxonomy(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
		want lakeerr.Code
	}{
		{"unknown user", errOf(l.QuerySQL(ctx, "mallory", "SELECT * FROM rel:orders")), lakeerr.CodeUnauthorized},
		{"non-governance audit", errOf(l.Audit(ctx, "dana", "raw/orders.csv")), lakeerr.CodeUnauthorized},
		{"explore unmaintained", errOf(l.RelatedTables(ctx, "dana", "orders", 2)), lakeerr.CodeUnavailable},
		{"missing metadata", errOf(l.Metadata(ctx, "ghost")), lakeerr.CodeNotFound},
		{"missing lineage", errOf(l.Lineage(ctx, "ghost")), lakeerr.CodeNotFound},
		{"bad sql", errOf(l.QuerySQL(ctx, "dana", "SELEKT x")), lakeerr.CodeInvalidQuery},
		{"unknown source", errOf(l.QuerySQL(ctx, "dana", "SELECT * FROM rel:ghost")), lakeerr.CodeNotFound},
		{"duplicate ingest", errOf(l.Ingest(ctx, "raw/orders.csv", []byte("x\n1\n"), "s", "dana")), lakeerr.CodeConflict},
	}
	for _, tc := range cases {
		if got := lakeerr.CodeOf(tc.err); got != tc.want {
			t.Errorf("%s: code = %q (%v), want %q", tc.name, got, tc.err, tc.want)
		}
	}
}

// errOf discards a value, keeping the error — for table-driven code
// checks over methods with different result types.
func errOf[T any](_ T, err error) error { return err }

func TestExploreDuringMaintainNoRace(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	c := ingestCorpus(t, l)
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	// Explore continuously while maintenance passes rebuild the index:
	// the swap-on-completion design must keep readers on a consistent
	// index (run with -race to catch regressions).
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
				if _, err := l.RelatedTables(ctx, "dana", c.Tables[0].Name, 2); err != nil {
					done <- err
					return
				}
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if _, err := l.Maintain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("explore during maintain: %v", err)
	}
}

func TestIngestBasenameCollisionConflict(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	// A different path mapping onto the same model-store name must not
	// silently clobber the first table.
	_, err := l.Ingest(ctx, "backup/orders.csv", []byte("id,total\n9,99\n"), "erp", "dana")
	if !lakeerr.IsConflict(err) {
		t.Fatalf("basename collision = %v, want conflict", err)
	}
	res, err := l.QuerySQL(ctx, "dana", "SELECT id FROM rel:orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Row(0)[0] != "1" {
		t.Errorf("original table clobbered: %v", res.Row(0))
	}
}

func TestIngestCannotClobberDerivedTable(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n2,30\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	derived, _ := table.ParseCSV("big_orders", "id,total\n2,30\n")
	if err := l.Derive(ctx, "dana", "filter_big", []string{"raw/orders.csv"}, derived); err != nil {
		t.Fatal(err)
	}
	// Ingesting a path whose derived name matches the derived table
	// must conflict, not overwrite it.
	_, err := l.Ingest(ctx, "raw/big_orders.csv", []byte("id\n7\n"), "erp", "dana")
	if !lakeerr.IsConflict(err) {
		t.Fatalf("ingest over derived table = %v, want conflict", err)
	}
	res, err := l.QuerySQL(ctx, "dana", "SELECT total FROM rel:big_orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Row(0)[0] != "30" {
		t.Errorf("derived table clobbered: %+v", res.Row(0))
	}
}

func TestDeriveRespectsNameIndexAndStaleness(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	if _, err := l.Ingest(ctx, "raw/clicks.jsonl", []byte("{\"u\":\"a\"}\n"), "s", "dana"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	// Deriving onto a name held by a document collection is a conflict.
	clash, _ := table.ParseCSV("clicks", "x\n1\n")
	if err := l.Derive(ctx, "dana", "act", nil, clash); !lakeerr.IsConflict(err) {
		t.Fatalf("derive onto collection name = %v, want conflict", err)
	}
	// A fresh derivation marks the lake stale until the next pass.
	fresh, _ := table.ParseCSV("derived_ok", "x\n1\n")
	if err := l.Derive(ctx, "dana", "act", nil, fresh); err != nil {
		t.Fatal(err)
	}
	if !l.Stale() {
		t.Error("derive should mark the lake stale (new table is unindexed)")
	}
	if rep, err := l.Maintain(ctx); err != nil || rep.Stale || l.Stale() {
		t.Errorf("post-derive Maintain = %+v, %v, stale=%v", rep, err, l.Stale())
	}
}

func TestMaintainIncrementalReindexesOnlyNewDataset(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	c := ingestCorpus(t, l)
	// First pass has no coverage: full rebuild over the whole corpus.
	rep, err := l.MaintainIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "full" || rep.Reason != "first-pass" || rep.DatasetsReindexed != len(c.Tables) {
		t.Fatalf("first pass = %q/%q datasets=%d, want full/first-pass/%d",
			rep.Mode, rep.Reason, rep.DatasetsReindexed, len(c.Tables))
	}
	// One new dataset into a maintained lake of N: the incremental pass
	// must reindex exactly that one dataset, not the whole lake.
	extra := table.ToCSV(c.Tables[0])
	if _, err := l.Ingest(ctx, "raw/extra.csv", []byte(extra), "generator", "dana"); err != nil {
		t.Fatal(err)
	}
	rep, err = l.MaintainIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "incremental" || rep.DatasetsReindexed != 1 {
		t.Fatalf("incremental pass = %q datasets=%d, want incremental/1", rep.Mode, rep.DatasetsReindexed)
	}
	if rep.Tables != len(c.Tables)+1 {
		t.Errorf("corpus size = %d, want %d", rep.Tables, len(c.Tables)+1)
	}
	if l.Stale() {
		t.Error("lake stale after incremental pass")
	}
	// The incrementally indexed dataset is fully explorable: it shares
	// its content with c.Tables[0], so its partners must surface.
	res, err := l.RelatedTables(ctx, "dana", "extra", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no discovery results for incrementally indexed dataset")
	}
	// Steady state: nothing new, the pass is an O(1) no-op.
	rep, err = l.MaintainIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "incremental" || rep.DatasetsReindexed != 0 {
		t.Errorf("steady-state pass = %q datasets=%d, want incremental/0", rep.Mode, rep.DatasetsReindexed)
	}
}

func TestMaintainIncrementalFullRebuildAfterDerive(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	c := ingestCorpus(t, l)
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	out := table.New("derived_pick")
	src, err := l.Poly.Rel.Table(c.Tables[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	out.Columns = src.Columns[:1]
	if err := l.Derive(ctx, "dana", "select", []string{c.Tables[0].Name}, out); err != nil {
		t.Fatal(err)
	}
	rep, err := l.MaintainIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "full" || rep.Reason != "derive" {
		t.Errorf("post-derive pass = %q/%q, want full/derive", rep.Mode, rep.Reason)
	}
	if rep.DatasetsReindexed != len(c.Tables)+1 {
		t.Errorf("datasets = %d, want %d", rep.DatasetsReindexed, len(c.Tables)+1)
	}
}

func TestMaintainIsAlwaysFull(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	c := ingestCorpus(t, l)
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Ingest(ctx, "raw/extra.csv", []byte(table.ToCSV(c.Tables[0])), "generator", "dana"); err != nil {
		t.Fatal(err)
	}
	rep, err := l.Maintain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "full" || rep.Reason != "requested" || rep.DatasetsReindexed != len(c.Tables)+1 {
		t.Errorf("explicit Maintain = %q/%q datasets=%d, want a requested full rebuild",
			rep.Mode, rep.Reason, rep.DatasetsReindexed)
	}
}

func TestMaintenanceStatusCounters(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	st := l.MaintenanceStatus()
	if st.Auto || !st.Stale || st.PassesRun != 0 || st.LastPass != nil {
		t.Fatalf("fresh status = %+v", st)
	}
	c := ingestCorpus(t, l)
	if _, err := l.MaintainIncremental(ctx); err != nil {
		t.Fatal(err)
	}
	st = l.MaintenanceStatus()
	if st.PassesRun != 1 || st.Stale || st.LastPass == nil || st.Covered != len(c.Tables) {
		t.Fatalf("post-pass status = %+v", st)
	}
	if st.LastPass.Mode != "full" || st.LastPassTime == nil {
		t.Errorf("last pass = %+v time=%v", st.LastPass, st.LastPassTime)
	}
	// A failed pass increments Failures and records the error.
	pre, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := l.MaintainIncremental(pre); err == nil {
		t.Fatal("canceled pass should fail")
	}
	st = l.MaintenanceStatus()
	if st.Failures != 1 || st.LastError == "" {
		t.Errorf("post-failure status = %+v", st)
	}
	// The next successful pass clears the error but keeps the count.
	if _, err := l.MaintainIncremental(ctx); err != nil {
		t.Fatal(err)
	}
	st = l.MaintenanceStatus()
	if st.Failures != 1 || st.LastError != "" || st.PassesRun != 2 {
		t.Errorf("recovered status = %+v", st)
	}
}

func TestTriggerMaintainConflictsWhileRunning(t *testing.T) {
	l := testLake(t)
	ingestCorpus(t, l)
	// Simulate an in-flight pass by holding the pass lock.
	l.maintMu.Lock()
	_, err := l.TriggerMaintain(context.Background())
	l.maintMu.Unlock()
	if !lakeerr.IsConflict(err) {
		t.Fatalf("trigger during pass = %v, want conflict", err)
	}
	// With the lock free it runs normally.
	rep, err := l.TriggerMaintain(context.Background())
	if err != nil || rep.Mode != "full" {
		t.Errorf("trigger = %+v, %v", rep, err)
	}
}

func TestSwampAuditHonorsContext(t *testing.T) {
	l := testLake(t)
	ingestCorpus(t, l)
	rep, err := l.SwampAudit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(l.Poly.Placements()); rep.Datasets != n || rep.WithMetadata > n {
		t.Errorf("SwampAudit %+v over %d datasets", rep, n)
	}
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.SwampAudit(pre); !lakeerr.IsUnavailable(err) {
		t.Errorf("canceled SwampAudit = %v", err)
	}
}

// TestAutoMaintainMakesIngestExplorable is the subsystem's reason to
// exist: with WithAutoMaintain, ingested data becomes explorable with
// no manual Maintain call.
func TestAutoMaintainMakesIngestExplorable(t *testing.T) {
	l, err := Open(t.TempDir(), WithAutoMaintain(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AddUser("dana", RoleDataScientist)
	ctx := context.Background()
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n2,20\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	if st := l.MaintenanceStatus(); !st.Auto {
		t.Fatal("status does not report auto-maintenance")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := l.RelatedTables(ctx, "dana", "orders", 2); err == nil {
			break
		} else if !errors.Is(err, ErrNotMaintained) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("ingest never became explorable under auto-maintenance")
		}
		time.Sleep(time.Millisecond)
	}
	// A second ingest is picked up incrementally by the scheduler:
	// staleness clears without any manual pass, and the new dataset is
	// discoverable as a corpus member (not just as a query).
	if _, err := l.Ingest(ctx, "raw/payments.csv", []byte("id,amount\n1,5\n2,6\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	for l.Stale() {
		if time.Now().After(deadline) {
			t.Fatal("second ingest never covered by the scheduler")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := l.RelatedTables(ctx, "dana", "orders", 2)
	if err != nil {
		t.Fatal(err)
	}
	foundPayments := false
	for _, r := range res {
		if r.Table == "payments" {
			foundPayments = true
		}
	}
	if !foundPayments {
		t.Errorf("incrementally indexed payments not discoverable from orders: %+v", res)
	}
	st := l.MaintenanceStatus()
	if st.PassesRun < 2 || st.NextRun == nil {
		t.Errorf("scheduler status = %+v", st)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	auto, err := Open(t.TempDir(), WithAutoMaintain(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := auto.Close(); err != nil {
		t.Fatal(err)
	}
	if err := auto.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTriggerConflictKicksScheduler: a POST that conflicts with a
// running pass must kick the scheduler so the racing data is covered
// right after the pass drains — not a full interval (here: an hour)
// later.
func TestTriggerConflictKicksScheduler(t *testing.T) {
	l, err := Open(t.TempDir(), WithAutoMaintain(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AddUser("dana", RoleDataScientist)
	ctx := context.Background()
	if _, err := l.Ingest(ctx, "raw/orders.csv", []byte("id,total\n1,10\n"), "erp", "dana"); err != nil {
		t.Fatal(err)
	}
	// Simulate an in-flight pass, conflict against it, then release.
	l.maintMu.Lock()
	if _, err := l.TriggerMaintain(ctx); !lakeerr.IsConflict(err) {
		l.maintMu.Unlock()
		t.Fatalf("trigger during pass = %v, want conflict", err)
	}
	l.maintMu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for l.Stale() {
		if time.Now().After(deadline) {
			t.Fatal("kicked scheduler never covered the lake (would have waited an hour)")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMaintenanceStatusAfterClose(t *testing.T) {
	l, err := Open(t.TempDir(), WithAutoMaintain(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if st := l.MaintenanceStatus(); !st.Auto {
		t.Fatal("open lake should report auto-maintenance")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed scheduler never fires again: the snapshot must not
	// advertise it.
	st := l.MaintenanceStatus()
	if st.Auto || st.NextRun != nil {
		t.Errorf("post-Close status = %+v, want manual mode with no next run", st)
	}
}

// TestIncrementalPassPromotesZones: zone promotion in an incremental
// pass covers just-ingested datasets — including non-relational ones
// that add no table to the discovery corpus — without rescanning the
// lake.
func TestIncrementalPassPromotesZones(t *testing.T) {
	l := testLake(t)
	ctx := context.Background()
	c := ingestCorpus(t, l)
	if _, err := l.Maintain(ctx); err != nil {
		t.Fatal(err)
	}
	curated := len(l.Handle.DataInZone(ZoneCurated))
	if curated != len(c.Tables) {
		t.Fatalf("curated after full pass = %d", curated)
	}
	if _, err := l.Ingest(ctx, "raw/extra.csv", []byte(table.ToCSV(c.Tables[0])), "generator", "dana"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Ingest(ctx, "raw/events.jsonl", []byte("{\"user\":\"a\",\"n\":1}\n{\"user\":\"b\",\"n\":2}\n"), "generator", "dana"); err != nil {
		t.Fatal(err)
	}
	rep, err := l.MaintainIncremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Only the CSV joined the discovery corpus, but both datasets moved
	// to the curated zone.
	if rep.Mode != "incremental" || rep.DatasetsReindexed != 1 {
		t.Fatalf("pass = %q datasets=%d", rep.Mode, rep.DatasetsReindexed)
	}
	if got := len(l.Handle.DataInZone(ZoneCurated)); got != curated+2 {
		t.Errorf("curated after incremental pass = %d, want %d", got, curated+2)
	}
}
