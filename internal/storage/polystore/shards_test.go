package polystore

import (
	"fmt"
	"strings"
	"testing"

	"golake/internal/table"
)

func shardStore(t *testing.T, rows int) *RelStore {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("id,v\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i%5)
	}
	tbl, err := table.ParseCSV("t", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelStore()
	r.Create(tbl)
	return r
}

// cursorRows drains c by NextBatch, in batches of 7 so runs end inside
// and at the ends of the tables, and returns its rows.
func cursorRows(c *Cursor) [][]string {
	var out [][]string
	for {
		cells, n := c.NextBatch(7)
		if n == 0 {
			return out
		}
		for i := 0; i < n; i++ {
			row := make([]string, len(cells))
			for j := range cells {
				row[j] = cells[j][i]
			}
			out = append(out, row)
		}
	}
}

func drainCursor(t *testing.T, c *Cursor) []string {
	t.Helper()
	var out []string
	for _, row := range cursorRows(c) {
		out = append(out, strings.Join(row, "|"))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScanWhereShards pins the range partition: K shard cursors cover
// every row exactly once, in the same order the single cursor yields.
func TestScanWhereShards(t *testing.T) {
	r := shardStore(t, 103) // deliberately not divisible by the widths
	base, err := r.ScanWhere("t", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := drainCursor(t, base)
	for _, k := range []int{1, 2, 7, 103, 200, 0} {
		curs, err := r.ScanWhereShards("t", nil, nil, k)
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		var got []string
		for _, c := range curs {
			got = append(got, drainCursor(t, c)...)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("shards=%d: %d rows, want the %d-row base scan", k, len(got), len(want))
		}
	}
}

// TestScanWhereShardsWithPredicates keeps pushdown correct per shard.
func TestScanWhereShardsWithPredicates(t *testing.T) {
	r := shardStore(t, 60)
	pred := []CellPredicate{{Column: "v", Match: func(s string) bool { return s == "3" }}}
	base, err := r.ScanWhere("t", pred, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	want := drainCursor(t, base)
	curs, err := r.ScanWhereShards("t", pred, []string{"id"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range curs {
		got = append(got, drainCursor(t, c)...)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("sharded filtered scan = %v, want %v", got, want)
	}
}

// TestShardCloseIndependence pins that closing one shard cursor leaves
// its siblings usable (they share snapshot slice headers, not state).
func TestShardCloseIndependence(t *testing.T) {
	r := shardStore(t, 40)
	curs, err := r.ScanWhereShards("t", nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := curs[0].Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, c := range curs[1:] {
		n += len(drainCursor(t, c))
	}
	if n != 30 {
		t.Errorf("rows from surviving shards = %d, want 30", n)
	}
}
