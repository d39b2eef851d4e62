package main

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// writeDataDir lays out a small raw-file directory for loadLake.
func writeDataDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"orders.csv":    "id,customer,total\n1,alice,10\n2,bob,20\n",
		"customers.csv": "customer,city\nalice,berlin\nbob,paris\n",
		"events.jsonl":  "{\"k\":\"a\"}\n{\"k\":\"b\"}\n",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadLakeIngestsAndMaintains(t *testing.T) {
	lake, err := loadLake(context.Background(), writeDataDir(t), "cli", 0, false, false, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := lake.Catalog.List(); len(got) != 3 {
		t.Errorf("catalog = %v", got)
	}
	if !lake.Poly.Rel.Has("orders") || !lake.Poly.Rel.Has("customers") {
		t.Error("relational tables missing")
	}
	// Maintenance ran: exploration is available.
	if _, err := lake.RelatedTables(context.Background(), "cli", "orders", 2); err != nil {
		t.Errorf("explore after load: %v", err)
	}
}

// fileState is a data file's content and modification time.
type fileState struct {
	data  string
	mtime time.Time
}

// dataFiles records every file under dir outside .golake.
func dataFiles(t *testing.T, dir string) map[string]fileState {
	t.Helper()
	out := map[string]fileState{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".golake" {
				return fs.SkipDir
			}
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[p] = fileState{data: string(data), mtime: info.ModTime()}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// loadLake ingests the data directory's files without touching them:
// every file keeps its content and modification time, with and without
// -persist.
func TestLoadLakeLeavesDataFilesUnmodified(t *testing.T) {
	for _, persist := range []bool{false, true} {
		dir := writeDataDir(t)
		old := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
		for p := range dataFiles(t, dir) {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
		before := dataFiles(t, dir)
		lake, err := loadLake(context.Background(), dir, "cli", 0, persist, false, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := lake.Close(); err != nil {
			t.Fatal(err)
		}
		after := dataFiles(t, dir)
		if len(after) != len(before) {
			t.Errorf("persist=%v: data files %d -> %d", persist, len(before), len(after))
		}
		for p, was := range before {
			if now := after[p]; now.data != was.data || !now.mtime.Equal(was.mtime) {
				t.Errorf("persist=%v: %s changed: %+v -> %+v", persist, p, was, now)
			}
		}
	}
}

// A -persist rerun restores what earlier runs ingested and ingests only
// the files it has not seen.
func TestLoadLakePersistRerunIngestsOnlyNewFiles(t *testing.T) {
	ctx := context.Background()
	dir := writeDataDir(t)
	lake, err := loadLake(ctx, dir, "cli", 0, true, false, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lake.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "items.csv"), []byte("sku,qty\na,1\nb,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lake, err = loadLake(ctx, dir, "cli", 0, true, false, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lake.Close()
	if got := lake.Catalog.List(); len(got) != 4 {
		t.Errorf("catalog after rerun = %v, want 4 datasets", got)
	}
	ingests := 0
	for _, ev := range lake.Tracker.Events() {
		if ev.Kind == "ingest" {
			ingests++
		}
	}
	if ingests != 4 {
		t.Errorf("%d ingest events over two runs, want 4: a file was ingested twice or not at all", ingests)
	}
	if d := lake.MaintenanceStatus().Durability; d == nil || d.Segments != 4 {
		t.Errorf("durability = %+v, want 4 segments", d)
	}
}

func TestDispatchCommands(t *testing.T) {
	lake, err := loadLake(context.Background(), writeDataDir(t), "cli", 0, false, false, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][]string{
		{"profile"},
		{"catalog"},
		{"discover", "orders", "2"},
		{"join", "orders", "customer", "2"},
		{"query", "SELECT id FROM rel:orders WHERE total > 15"},
		{"swamp"},
		{"lineage", "orders.csv"},
	} {
		if err := dispatch(context.Background(), lake, "cli", c[0], c[1:], queryFlags{}); err != nil {
			t.Errorf("dispatch(%v): %v", c, err)
		}
	}
	// Missing-argument errors.
	for _, c := range [][]string{{"discover"}, {"join", "orders"}, {"query"}, {"lineage"}} {
		if err := dispatch(context.Background(), lake, "cli", c[0], c[1:], queryFlags{}); err == nil {
			t.Errorf("dispatch(%v) should fail", c)
		}
	}
}

func TestParseOrderFlag(t *testing.T) {
	keys, err := parseOrderFlag("price:desc, city ,n:asc")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || !keys[0].Desc || keys[0].Column != "price" ||
		keys[1].Desc || keys[1].Column != "city" || keys[2].Desc {
		t.Errorf("keys = %+v", keys)
	}
	if keys, err := parseOrderFlag(""); err != nil || keys != nil {
		t.Errorf("empty flag = %v, %v", keys, err)
	}
	for _, bad := range []string{":desc", "a:sideways", "a,,b"} {
		if _, err := parseOrderFlag(bad); err == nil {
			t.Errorf("parseOrderFlag(%q) should fail", bad)
		}
	}
}

// TestQueryFlagsDispatch drives the query command through the -order,
// -explain and fan-in flags — the one-Request plumbing.
func TestQueryFlagsDispatch(t *testing.T) {
	lake, err := loadLake(context.Background(), writeDataDir(t), "cli", 0, false, false, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, qf := range []queryFlags{
		{order: "total:desc", fanIn: 2, stats: true},
		{explain: true},
		{order: "id", fanIn: 1},
	} {
		if err := dispatch(context.Background(), lake, "cli",
			"query", []string{"SELECT id, total FROM rel:orders"}, qf); err != nil {
			t.Errorf("dispatch query %+v: %v", qf, err)
		}
	}
	if err := dispatch(context.Background(), lake, "cli",
		"query", []string{"SELECT id FROM rel:orders"}, queryFlags{order: "id:bad"}); err == nil {
		t.Error("bad -order direction should fail")
	}
}

func TestArgK(t *testing.T) {
	if got := argK([]string{"x", "7"}, 1); got != 7 {
		t.Errorf("argK = %d", got)
	}
	if got := argK([]string{"x"}, 1); got != 5 {
		t.Errorf("argK default = %d", got)
	}
	if got := argK([]string{"x", "notanumber"}, 1); got != 5 {
		t.Errorf("argK bad input = %d", got)
	}
}

func TestDemoRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := demo(context.Background()); err != nil {
		t.Fatal(err)
	}
}
