package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"golake/internal/storage/polystore"
)

// shardEngine builds an engine over one 500-row relational table.
func shardEngine(t *testing.T) *Engine {
	t.Helper()
	p, err := polystore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("id,v\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i%7)
	}
	if _, err := p.Ingest("raw/sharded.csv", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	return NewEngine(p)
}

func drainSorted(t *testing.T, st *RowStream) []string {
	t.Helper()
	var out []string
	for {
		row, err := st.Next(context.Background())
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, strings.Join(row, "|"))
	}
	_ = st.Close()
	sort.Strings(out)
	return out
}

// TestShardedScanIdentity pins that range-partitioned parallel scans
// return exactly the unsharded result set, at several widths including
// shards > rows of some partitions.
func TestShardedScanIdentity(t *testing.T) {
	e := shardEngine(t)
	const sql = "SELECT id, v FROM rel:sharded WHERE v > 2"
	base, err := e.Query(context.Background(), Request{SQL: sql, FanIn: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := drainSorted(t, base)
	if len(want) == 0 {
		t.Fatal("fixture returned no rows")
	}
	for _, shards := range []int{1, 3, 8, 64} {
		st, err := e.Query(context.Background(), Request{SQL: sql, Shards: shards, FanIn: 8})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := drainSorted(t, st); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("shards=%d: %d rows, want %d identical rows", shards, len(got), len(want))
		}
	}
}

// TestShardedScanOrdered pins byte-identity under ORDER BY: the sort
// stage makes sharded output deterministic, equal to the sequential
// scan byte for byte.
func TestShardedScanOrdered(t *testing.T) {
	e := shardEngine(t)
	const sql = "SELECT id, v FROM rel:sharded ORDER BY id LIMIT 50"
	collect := func(req Request) string {
		st, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for {
			row, err := st.Next(context.Background())
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, strings.Join(row, ","))
		}
		_ = st.Close()
		return strings.Join(out, "\n")
	}
	want := collect(Request{SQL: sql, FanIn: 1})
	got := collect(Request{SQL: sql, Shards: 6, FanIn: 6})
	if got != want {
		t.Errorf("ordered sharded output diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestShardedPlan pins the EXPLAIN surface: the access path names the
// shard count and the fan-in width counts each shard as a source.
func TestShardedPlan(t *testing.T) {
	e := shardEngine(t)
	st, err := e.Query(context.Background(), Request{
		SQL: "SELECT id FROM rel:sharded", Shards: 4, FanIn: 8, Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	plan := st.Plan()
	if len(plan.Sources) != 1 {
		t.Fatalf("sources = %+v", plan.Sources)
	}
	if !strings.Contains(plan.Sources[0].Access, "4 range shards") {
		t.Errorf("access = %q, want range-shard note", plan.Sources[0].Access)
	}
	if plan.FanIn != 4 {
		t.Errorf("fan-in = %d, want 4 (bounded by effective source count)", plan.FanIn)
	}
}

// TestShardedBatchPipeline keeps the columnar path correct under
// sharding and small batches: the identical result set, one stats
// counter per shard.
func TestShardedBatchPipeline(t *testing.T) {
	e := shardEngine(t)
	const sql = "SELECT id, v FROM rel:sharded WHERE v = 3"
	base, err := e.Query(context.Background(), Request{SQL: sql, FanIn: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := drainSorted(t, base)
	st, err := e.Query(context.Background(), Request{SQL: sql, Shards: 5, FanIn: 5, BatchRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainSorted(t, st); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("batch sharded rows = %d, want %d", len(got), len(want))
	}
	if n := len(st.Stats().Sources); n != 5 {
		t.Errorf("stats sources = %d, want one per shard (5)", n)
	}
}
