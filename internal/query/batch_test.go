package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"golake/internal/storage/polystore"
)

// relEngine builds an engine over three relational tables with
// heterogeneous headers — the all-"rel" federation the columnar
// pipeline serves, with null padding and numeric/string predicate
// cells both represented.
func relEngine(t *testing.T) *Engine {
	t.Helper()
	p, err := polystore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(path, csv string) {
		t.Helper()
		if _, err := p.Ingest(path, []byte(csv)); err != nil {
			t.Fatal(err)
		}
	}
	ingest("raw/hotels_a.csv", "city,price\nams,10\nparis,30\nrome,20\nlima,\n")
	ingest("raw/hotels_b.csv", "city,price,stars\noslo,15,4\nbern,50,5\nkyoto,70,3\n")
	ingest("raw/hotels_c.csv", "city,pop\nquito,2\nosaka,19\n")
	return NewEngine(p)
}

func drainStream(t *testing.T, st *RowStream) [][]string {
	t.Helper()
	var out [][]string
	for {
		row, err := st.Next(context.Background())
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, append(Row(nil), row...))
	}
}

// TestBatchAdapterRoundTrip: RowStream's row cursor reproduces its
// batch drain exactly, at any batch size, including sizes that straddle
// a source's length.
func TestBatchAdapterRoundTrip(t *testing.T) {
	e := federatedEngine(t)
	const sql = "SELECT * FROM rel:hotels_a, doc:hotels_b, doc:hotels_g"
	for _, n := range []int{1, 2, 3, 5, 100} {
		req := Request{SQL: sql, BatchRows: n, FanIn: 1}
		st, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]string
		for {
			b, err := st.NextBatch(context.Background())
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if b.Len() > n {
				t.Errorf("rows=%d: batch of %d rows", n, b.Len())
			}
			for i := 0; i < b.Len(); i++ {
				want = append(want, b.Row(i))
			}
		}
		_ = st.Close()
		st, err = e.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got := drainStream(t, st); !reflect.DeepEqual(got, want) || len(got) != 7 {
			t.Errorf("rows=%d: %v, want %v", n, got, want)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFilterBatchesMatchesRowFilter pins the vectorized predicate path
// to Predicate.Matches semantics cell by cell: numeric comparison when
// both sides parse, string comparison otherwise, empty cells included.
func TestFilterBatchesMatchesRowFilter(t *testing.T) {
	cols := []string{"v"}
	cells := [][]string{{"10"}, {"9.5"}, {""}, {"abc"}, {"10.0"}, {"-3"}, {"2e1"}}
	preds := [][]Predicate{
		{{Column: "v", Op: ">", Value: "9", Numeric: true}},
		{{Column: "v", Op: "=", Value: "10", Numeric: true}},
		{{Column: "v", Op: "!=", Value: "abc"}},
		{{Column: "v", Op: "<=", Value: "10", Numeric: true}},
		{{Column: "v", Op: ">", Value: "aaa"}},
		{{Column: "missing", Op: "=", Value: "1"}},
	}
	for _, ps := range preds {
		var want [][]string
		for _, row := range cells {
			if ps[0].Column == "v" && ps[0].Matches(row[0]) {
				want = append(want, row)
			}
		}
		for _, n := range []int{1, 3, 1024} {
			got := drainBatches(t, FilterBatches(rowsSource(cols, cells, n), ps))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("preds=%v rows=%d: %v, want %v", ps, n, got, want)
			}
		}
	}
}

// TestParallelUnionBatchesCloseMidStreamIsLeakFree: closing the
// parallel batch union with pullers blocked on their sources must
// unblock and join every puller and close every source.
func TestParallelUnionBatchesCloseMidStreamIsLeakFree(t *testing.T) {
	sources := make([]BatchIterator, 4)
	blocked := make([]*gatedSource, 4)
	for i := range sources {
		blocked[i] = &gatedSource{cols: []string{"v"}, gate: make(chan struct{})}
		sources[i] = blocked[i]
	}
	it := ParallelUnionBatches(context.Background(), sources, nil, FanInOptions{Workers: 4}, 8)
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range blocked {
		if s.closes.Load() == 0 {
			t.Errorf("source %d not closed on early Close", i)
		}
	}
	// Close is idempotent.
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelUnionBatchesConsumerCancelUnblocksAndTearsDown: a
// consumer-side cancellation must surface promptly even with every
// source stalled, and Close must still join the pullers.
func TestParallelUnionBatchesConsumerCancelUnblocksAndTearsDown(t *testing.T) {
	sources := make([]BatchIterator, 3)
	for i := range sources {
		sources[i] = &gatedSource{cols: []string{"v"}, gate: make(chan struct{})}
	}
	ctx, cancel := context.WithCancel(context.Background())
	it := ParallelUnionBatches(ctx, sources, nil, FanInOptions{Workers: 3}, 8)
	cancel()
	if _, err := it.Next(ctx); err == nil || err == io.EOF {
		t.Fatalf("Next after cancel = %v, want error", err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// ctxBlindBatchSource yields batches forever and never looks at the
// context — the pathological source behind the sequential-union
// cancellation regression test.
type ctxBlindBatchSource struct {
	cols []string
}

func (s *ctxBlindBatchSource) Columns() []string { return s.cols }

func (s *ctxBlindBatchSource) Next(context.Context) (*Batch, error) {
	return NewBatch([]*Vector{NewVector([]string{"x"})}), nil
}

func (s *ctxBlindBatchSource) Close() error { return nil }

// TestUnionBatchesChecksContextBetweenBatches: the sequential batch
// union re-checks the caller's context between batches, so a cancelled
// query terminates even when the member source ignores cancellation.
func TestUnionBatchesChecksContextBetweenBatches(t *testing.T) {
	u := UnionBatches([]BatchIterator{&ctxBlindBatchSource{cols: []string{"v"}}}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := u.Next(ctx); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	cancel()
	if _, err := u.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	// Transient: a live context resumes the stream.
	if _, err := u.Next(context.Background()); err != nil {
		t.Fatalf("Next after resume: %v", err)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLimitBatchesEagerClose: once the cap is reached the input is
// closed immediately, releasing source scans before the consumer's
// Close.
func TestLimitBatchesEagerClose(t *testing.T) {
	src := countSource("", 100, 8)
	it := LimitBatches(src, 10)
	if got := drainBatches(t, it); len(got) != 10 {
		t.Fatalf("got %d rows, want 10", len(got))
	}
	if src.closes.Load() == 0 {
		t.Error("input not closed eagerly at the limit")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchPlanAndStats: the plan line names the columnar pipeline for
// every mix of stores, EXPLAIN ANALYZE carries the batch count, and
// Stats reports batches.
func TestBatchPlanAndStats(t *testing.T) {
	e := relEngine(t)
	ctx := context.Background()
	if _, err := e.Poly.Ingest("raw/hotels_d.jsonl", []byte(`{"city":"oslo"}`+"\n")); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT city FROM rel:hotels_a",
		"SELECT city FROM rel:hotels_a, doc:hotels_d, file:raw/",
	} {
		st, err := e.Query(ctx, Request{SQL: sql, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		if s := st.Plan().String(); !strings.Contains(s, "batch: columnar (1024 rows/batch)") {
			t.Errorf("explain plan missing batch line:\n%s", s)
		}
		_ = st.Close()
	}
	st, err := e.Query(ctx, Request{SQL: "EXPLAIN ANALYZE SELECT city FROM rel:hotels_a, rel:hotels_b", BatchRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Plan().String(); !strings.Contains(s, "batches:") {
		t.Errorf("explain analyze missing batches count:\n%s", s)
	}
	_ = st.Close()
	st, err = e.Query(ctx, Request{SQL: "SELECT city FROM rel:hotels_a", BatchRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	drainStream(t, st)
	_ = st.Close()
	if got := st.Stats().Batches; got < 2 {
		t.Errorf("Stats().Batches = %d, want >= 2", got)
	}
}

// TestBatchEarlyCloseReleasesSources: closing a batch-mode stream
// mid-drain closes every underlying cursor-backed source without
// error — the leak check for the full assembled pipeline.
func TestBatchEarlyCloseReleasesSources(t *testing.T) {
	e := relEngine(t)
	for _, fanIn := range []int{1, 4} {
		st, err := e.Query(context.Background(), Request{
			SQL: "SELECT * FROM rel:hotels_a, rel:hotels_b, rel:hotels_c", FanIn: fanIn, BatchRows: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("fanin=%d: Close: %v", fanIn, err)
		}
		// Close is idempotent even mid-stream.
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCollectUsesBatchFace: Collect drains column-wise and returns the
// table the row cursor would have produced, on a mixed-store statement.
func TestCollectUsesBatchFace(t *testing.T) {
	e := federatedEngine(t)
	ctx := context.Background()
	req := Request{SQL: "SELECT city, price FROM rel:hotels_a, doc:hotels_b, doc:hotels_g WHERE price > 20", FanIn: 1, BatchRows: 2}
	st, err := e.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want := drainStream(t, st)
	_ = st.Close()
	st, err = e.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != len(want) || len(want) != 4 {
		t.Fatalf("Collect: %d rows, cursor %d (want 4)", got.NumRows(), len(want))
	}
	for i, row := range want {
		if !reflect.DeepEqual(got.Row(i), row) {
			t.Errorf("row %d: Collect %v, cursor %v", i, got.Row(i), row)
		}
	}
}

// TestMixedQueryAllocationCeiling holds a rel+doc statement over 20k
// table rows and 4k documents, drained through NextBatch at fan-in 1,
// to its batch cost: about 4.3k allocations for 12k rows, 2.4k of them
// the text of the matched documents' numeric cells. Splitting the
// filter's path per document cost 4k more; the row pipeline this
// replaced spent 33.9k on the same statement.
func TestMixedQueryAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p, err := polystore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var csv, docs strings.Builder
	csv.WriteString("id,v,site\n")
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&csv, "r%d,%d,s%d\n", i, i*7919%1000, i%50)
	}
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&docs, "{\"id\":\"d%d\",\"v\":%d,\"kind\":\"k%d\"}\n", i, i*31%1000, i%7)
	}
	if _, err := p.Ingest("raw/big.csv", []byte(csv.String())); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest("raw/events.jsonl", []byte(docs.String())); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	ctx := context.Background()
	rows := 0
	n := testing.AllocsPerRun(5, func() {
		st, err := e.Query(ctx, Request{SQL: "SELECT id, v FROM rel:big, doc:events WHERE v > 500", FanIn: 1})
		if err != nil {
			t.Fatal(err)
		}
		rows = 0
		for {
			b, err := st.NextBatch(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rows += b.Len()
		}
		_ = st.Close()
	})
	if rows < 11000 {
		t.Fatalf("statement returned %d rows, want the fixture's ~11.9k", rows)
	}
	if n > 4500 {
		t.Errorf("mixed rel+doc statement: %v allocations for %d rows, want <= 4500", n, rows)
	}
}

// TestVectorFloatsMatchParseFloat pins the float mirror's shortcuts
// (the shape test, the short-integer parse) to strconv.ParseFloat, sign
// of zero included.
func TestVectorFloatsMatchParseFloat(t *testing.T) {
	cells := []string{"", "0", "-0", "+7", "007", "-3", "123456789012345", "-12345678901234", "1234567890123456",
		"9.5", "1e3", "1E-2", ".5", "NaN", "-inf", "Infinity", "infinite", " 5", "5 ", "0x10", "1_000", "abc", "+", "-", "1a", "2e"}
	f, ok := NewVector(cells).Floats()
	for i, c := range cells {
		want, err := strconv.ParseFloat(c, 64)
		switch {
		case ok.Get(i) != (err == nil):
			t.Errorf("%q: parsed=%v, ParseFloat err=%v", c, ok.Get(i), err)
		case err == nil && math.Float64bits(f[i]) != math.Float64bits(want) && !(math.IsNaN(f[i]) && math.IsNaN(want)):
			t.Errorf("%q: mirror %v, ParseFloat %v", c, f[i], want)
		}
	}
}
