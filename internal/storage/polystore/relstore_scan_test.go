package polystore

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"golake/internal/ndjson"
	"golake/internal/table"
)

func scanTable(t *testing.T) *RelStore {
	t.Helper()
	r := NewRelStore()
	tbl, err := table.ParseCSV("orders", "id,status,total\n1,open,10\n2,closed,20\n3,open,30\n")
	if err != nil {
		t.Fatal(err)
	}
	r.Create(tbl)
	return r
}

// numberedStore holds one table t of rows rows: id counts up, v is
// id mod 5.
func numberedStore(t *testing.T, rows int) *RelStore {
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

func TestScanWhereStreamsProjectedMatches(t *testing.T) {
	r := scanTable(t)
	cur, err := r.ScanWhere("orders",
		[]CellPredicate{{Column: "status", Match: func(c string) bool { return c == "open" }}},
		[]string{"total"})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []string
	for _, row := range cursorRows(cur) {
		if len(row) != 1 {
			t.Fatalf("row = %v, want 1 projected cell", row)
		}
		got = append(got, row[0])
	}
	if fmt.Sprint(got) != "[10 30]" {
		t.Errorf("scanned %v, want [10 30]", got)
	}
}

func TestScanWhereMissingPredicateColumnMatchesNothing(t *testing.T) {
	r := scanTable(t)
	cur, err := r.ScanWhere("orders",
		[]CellPredicate{{Column: "ghost", Match: func(string) bool { return true }}},
		[]string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, n := cur.NextBatch(8); n != 0 {
		t.Error("predicate on a missing column must match nothing")
	}
	if cols := cur.Columns(); len(cols) != 1 || cols[0] != "id" {
		t.Errorf("empty cursor header = %v, want the projection", cols)
	}
}

// TestScanWhereSnapshotUnderConcurrentCreate pins the cursor's
// isolation contract: a scan opened before its table is replaced (or
// dropped) reads the old table's cells and the old float mirror to the
// end, whether or not the mirror was built before the replacement.
func TestScanWhereSnapshotUnderConcurrentCreate(t *testing.T) {
	r := scanTable(t)
	curs := make([]*Cursor, 2)
	for k := range curs {
		cur, err := r.ScanWhere("orders", nil, []string{"id", "total"})
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		curs[k] = cur
	}
	// The first cursor's mirror is built before the replacement, the
	// second's only after it.
	if m, _ := curs[0].Mirror(1); m == nil || m.Numbers().Vals[2] != 30 {
		t.Fatal("old mirror not readable before the replacement")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tbl, err := table.ParseCSV("orders", fmt.Sprintf("id,status,total\n%d,new,%d\n", 100+i, -i))
			if err != nil {
				t.Error(err)
				return
			}
			r.Create(tbl)
			if i%50 == 49 {
				_ = r.Drop("orders")
			}
		}
	}()
	for _, cur := range curs {
		cells, n := cur.NextBatch(1024)
		m, off := cur.Mirror(1)
		if n != 3 || m == nil {
			t.Fatalf("scan saw %d rows (mirror %v), want the 3-row table", n, m)
		}
		nums := m.Numbers()
		for i := 0; i < n; i++ {
			want := float64(10 * (i + 1))
			if cells[0][i] != fmt.Sprint(i+1) || nums.Vals[off+i] != want {
				t.Errorf("row %d: id %q, mirror %v; want the old table's %d, %v", i, cells[0][i], nums.Vals[off+i], i+1, want)
			}
		}
	}
	wg.Wait()
}

// TestFloatMirrorSize pins what a mirror keeps resident: 8 bytes per
// cell plus one bit for a numeric column, only the bits for a column in
// which no cell parses.
func TestFloatMirrorSize(t *testing.T) {
	r := numberedStore(t, 1000)
	tbl, _ := table.ParseCSV("words", "w\nx\ny\n")
	r.Create(tbl)
	cur, err := r.ScanWhere("t", nil, []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := cur.Mirror(0)
	if nums := m.Numbers(); len(nums.Vals) != 1000 || len(nums.Valid) != 16 {
		t.Errorf("numeric mirror: %d floats, %d words; want 1000, 16", len(nums.Vals), len(nums.Valid))
	}
	cur, err = r.ScanWhere("words", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _ = cur.Mirror(0)
	if nums := m.Numbers(); nums.Vals != nil || len(nums.Valid) != 1 {
		t.Errorf("text mirror: %d floats, %d words; want none, 1", len(nums.Vals), len(nums.Valid))
	}
}

// TestJSONMirrorSize pins what a mirror's wire form keeps resident: the
// encoded literals, with no spare capacity even when a cell needed
// escaping, plus a 4-byte offset per cell and one more.
func TestJSONMirrorSize(t *testing.T) {
	r := numberedStore(t, 1000)
	tbl, _ := table.ParseCSV("quoted", "w\n\"a\"\"b\"\nc\n")
	r.Create(tbl)
	for _, tc := range []struct {
		table, col string
		cells      []string
		bytes      int
	}{
		{"t", "v", nil, 1000 * len(`"0"`)},
		{"quoted", "w", []string{`a"b`, "c"}, len(`"a\"b"`) + len(`"c"`)},
	} {
		cur, err := r.ScanWhere(tc.table, nil, []string{tc.col})
		if err != nil {
			t.Fatal(err)
		}
		cells, n := cur.NextBatch(1 << 20)
		m, _ := cur.Mirror(0)
		arena, ends := m.JSON()
		if len(arena) != tc.bytes || cap(arena) != tc.bytes || len(ends) != n+1 || cap(ends) != n+1 {
			t.Errorf("%s.%s: arena %d bytes (cap %d), %d offsets (cap %d); want %d bytes, %d offsets",
				tc.table, tc.col, len(arena), cap(arena), len(ends), cap(ends), tc.bytes, n+1)
		}
		for k, c := range cells[0] {
			if got, want := string(arena[ends[k]:ends[k+1]]), string(ndjson.AppendString(nil, c)); got != want {
				t.Fatalf("%s.%s cell %d: %s, want %s", tc.table, tc.col, k, got, want)
			}
		}
		if a2, _ := m.JSON(); &a2[0] != &arena[0] {
			t.Errorf("%s.%s: a second read built a second arena", tc.table, tc.col)
		}
	}
}
