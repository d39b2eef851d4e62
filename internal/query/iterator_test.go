package query

import (
	"context"
	"io"
	"reflect"
	"testing"

	"golake/internal/storage/polystore"
	"golake/internal/table"
)

func drain(t *testing.T, it RowIterator) [][]string {
	t.Helper()
	var out [][]string
	for {
		row, err := it.Next(context.Background())
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, row)
	}
}

func TestLimitShortCircuitsSource(t *testing.T) {
	src := countSource("x", 100000, 1)
	it := LimitBatches(UnionBatches([]BatchIterator{src}, nil), 10)
	rows := drainBatches(t, it)
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	if n := src.pulled.Load(); n != 10 {
		t.Errorf("source scanned %d rows for LIMIT 10, want exactly 10", n)
	}
	if src.closes.Load() == 0 {
		t.Error("reaching the limit must close the source scan eagerly")
	}
}

func TestUnionNullPadsAndOrdersColumns(t *testing.T) {
	a := rowsSource([]string{"city", "price"}, [][]string{{"ams", "10"}}, 1)
	b := rowsSource([]string{"price", "stars"}, [][]string{{"20", "4"}}, 1)
	it := UnionBatches([]BatchIterator{a, b}, nil)
	if got, want := it.Columns(), []string{"city", "price", "stars"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("union header = %v, want %v", got, want)
	}
	rows := drainBatches(t, it)
	want := [][]string{{"ams", "10", ""}, {"", "20", "4"}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("union rows = %v, want %v", rows, want)
	}
}

func TestUnionProjectsExplicitColumns(t *testing.T) {
	a := rowsSource([]string{"city", "price"}, [][]string{{"ams", "10"}}, 1)
	b := rowsSource([]string{"stars"}, [][]string{{"4"}}, 1)
	it := UnionBatches([]BatchIterator{a, b}, []string{"price", "stars"})
	rows := drainBatches(t, it)
	want := [][]string{{"10", ""}, {"", "4"}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("projected union = %v, want %v", rows, want)
	}
}

func TestFilterMissingColumnMatchesNothing(t *testing.T) {
	in := rowsSource([]string{"a"}, [][]string{{"1"}, {"2"}}, 2)
	it := FilterBatches(in, []Predicate{{Column: "ghost", Op: OpEq, Value: "1"}})
	if rows := drainBatches(t, it); len(rows) != 0 {
		t.Errorf("predicate on missing column yielded %v, want nothing", rows)
	}
}

func TestCancellationStopsStreamBetweenRows(t *testing.T) {
	src := countSource("x", 1000, 1)
	it := UnionBatches([]BatchIterator{src}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := it.Next(ctx); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	cancel()
	if _, err := it.Next(ctx); err != context.Canceled {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if src.closes.Load() == 0 {
		t.Error("Close must release the source scan")
	}
}

func TestCloseMidStreamReleasesAllSources(t *testing.T) {
	a := countSource("x", 10, 1)
	b := countSource("y", 10, 1)
	it := LimitBatches(UnionBatches([]BatchIterator{a, b}, nil), 100)
	if _, err := it.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if a.closes.Load() == 0 || b.closes.Load() == 0 {
		t.Errorf("Close released a=%d b=%d times, want both", a.closes.Load(), b.closes.Load())
	}
}

// TestCollectMatchesStreamDrain pins the contract that Collect is a
// pure collector over Query: it agrees with the drained row stream on
// a federated union with heterogeneous columns, predicates, and a
// limit.
func TestCollectMatchesStreamDrain(t *testing.T) {
	p, err := polystore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest("raw/hotels_a.csv", []byte("city,price\nams,10\nparis,30\nrome,20\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest("raw/hotels_b.jsonl", []byte("{\"city\":\"oslo\",\"price\":15,\"stars\":4}\n{\"city\":\"bern\",\"price\":50}\n")); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	for _, sql := range []string{
		"SELECT * FROM rel:hotels_a, doc:hotels_b",
		"SELECT city, price FROM rel:hotels_a, doc:hotels_b WHERE price > 12 LIMIT 2",
		"SELECT city, stars FROM rel:hotels_a, doc:hotels_b",
	} {
		res, err := collectSQL(context.Background(), e, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		st, err := e.Query(context.Background(), Request{SQL: sql, FanIn: 1})
		if err != nil {
			t.Fatalf("%s: stream: %v", sql, err)
		}
		if got, want := st.Columns(), res.ColumnNames(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stream header %v, collect header %v", sql, got, want)
		}
		rows := drain(t, st)
		if len(rows) != res.NumRows() {
			t.Fatalf("%s: stream %d rows, collect %d", sql, len(rows), res.NumRows())
		}
		for i, row := range rows {
			if !reflect.DeepEqual(row, res.Row(i)) {
				t.Errorf("%s: row %d stream %v, collect %v", sql, i, row, res.Row(i))
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamLimitBoundsRelationalScan proves LIMIT is enforced as a
// pipeline stage over the real relational scan: the result is
// O(limit) even though the source table is large.
func TestStreamLimitBoundsRelationalScan(t *testing.T) {
	p, err := polystore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	big := table.New("big")
	big.Columns = []*table.Column{{Name: "id"}}
	for i := 0; i < 50000; i++ {
		_ = big.AppendRow([]string{"x"})
	}
	p.Rel.Create(big)
	st, err := NewEngine(p).Query(context.Background(), Request{SQL: "SELECT id FROM rel:big LIMIT 7"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rows := drain(t, st); len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
}
