package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"golake/internal/storage/polystore"
	"golake/internal/table"
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

// equivalenceQueries are the query shapes the batch/row equivalence
// property sweeps: SELECT *, explicit projection with null padding,
// numeric and string predicates, LIMIT, and ORDER BY. limited marks
// queries whose surviving rows are arrival-order-dependent at fan-in
// > 1 (LIMIT without ORDER BY) — there the pipelines can only agree on
// count and membership, exactly as the row pipeline's own widths do.
var equivalenceQueries = []struct {
	sql     string
	limited bool
}{
	{sql: "SELECT * FROM rel:hotels_a, rel:hotels_b, rel:hotels_c"},
	{sql: "SELECT city, price FROM rel:hotels_a, rel:hotels_b, rel:hotels_c"},
	{sql: "SELECT city, price FROM rel:hotels_a, rel:hotels_b WHERE price > 20"},
	{sql: "SELECT city, stars FROM rel:hotels_a, rel:hotels_b WHERE city = 'oslo'"},
	{sql: "SELECT city FROM rel:hotels_a, rel:hotels_b, rel:hotels_c LIMIT 4", limited: true},
	{sql: "SELECT * FROM rel:hotels_a WHERE missing = '1'"},
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

// TestBatchRowEquivalence is the pinning property test: across batch
// sizes and fan-in widths, the columnar pipeline's header and rows are
// byte-identical to the row pipeline's. Sequential widths compare the
// exact sequence (source-concatenation order is part of the row
// pipeline's contract); parallel widths compare the sorted multiset,
// exactly as the row pipeline's own fan-in tests do.
func TestBatchRowEquivalence(t *testing.T) {
	e := relEngine(t)
	rowEng := NewEngine(e.Poly)
	rowEng.DisableBatch = true
	ctx := context.Background()
	for _, tc := range equivalenceQueries {
		// The reference is the sequential union: the sequence contract
		// the comment above states holds at fan-in 1 only, and the
		// default width is the machine's CPU count.
		rst, err := rowEng.Query(ctx, Request{SQL: tc.sql, FanIn: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantHeader := rst.Columns()
		wantRows := drainStream(t, rst)
		_ = rst.Close()
		// For LIMIT-at-width queries the reference is the unlimited row
		// multiset: any LIMIT-sized subset of it is a correct answer.
		var universe map[string]bool
		if tc.limited {
			unlimited, _, ok := strings.Cut(tc.sql, " LIMIT ")
			if !ok {
				t.Fatalf("limited query %q has no LIMIT", tc.sql)
			}
			ust, err := rowEng.Query(ctx, Request{SQL: unlimited})
			if err != nil {
				t.Fatal(err)
			}
			universe = map[string]bool{}
			for _, row := range drainStream(t, ust) {
				universe[fmt.Sprint(row)] = true
			}
			_ = ust.Close()
		}
		for _, batchRows := range []int{1, 7, 1024} {
			for _, fanIn := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/batch=%d/fanin=%d", tc.sql, batchRows, fanIn)
				st, err := e.Query(ctx, Request{SQL: tc.sql, BatchRows: batchRows, FanIn: fanIn})
				if err != nil {
					t.Fatal(err)
				}
				if !st.BatchMode() {
					t.Errorf("%s: batch mode off, want on", name)
				}
				if got := st.Columns(); !reflect.DeepEqual(got, wantHeader) {
					t.Fatalf("%s: header %v, want %v", name, got, wantHeader)
				}
				got := drainStream(t, st)
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if tc.limited && fanIn > 1 {
					if len(got) != len(wantRows) {
						t.Errorf("%s: %d rows, want %d", name, len(got), len(wantRows))
					}
					for _, row := range got {
						if !universe[fmt.Sprint(row)] {
							t.Errorf("%s: row %v not in the unlimited result", name, row)
						}
					}
					continue
				}
				want := wantRows
				if fanIn > 1 {
					got, want = sortedRows(got), sortedRows(want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: rows %v, want %v", name, got, want)
				}
			}
		}
	}
}

// TestBatchRowEquivalenceOrdered: with ORDER BY the comparison is
// exact at every width — the total-order sort makes parallel arrival
// order irrelevant.
func TestBatchRowEquivalenceOrdered(t *testing.T) {
	e := relEngine(t)
	rowEng := NewEngine(e.Poly)
	rowEng.DisableBatch = true
	ctx := context.Background()
	sql := "SELECT city, price FROM rel:hotels_a, rel:hotels_b, rel:hotels_c"
	order := []OrderKey{{Column: "price", Desc: true}, {Column: "city"}}
	rst, err := rowEng.Query(ctx, Request{SQL: sql, Order: order})
	if err != nil {
		t.Fatal(err)
	}
	want := drainStream(t, rst)
	_ = rst.Close()
	for _, batchRows := range []int{1, 7, 1024} {
		for _, fanIn := range []int{1, 4, 8} {
			st, err := e.Query(ctx, Request{SQL: sql, Order: order, BatchRows: batchRows, FanIn: fanIn})
			if err != nil {
				t.Fatal(err)
			}
			got := drainStream(t, st)
			_ = st.Close()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("batch=%d fanin=%d: rows %v, want %v", batchRows, fanIn, got, want)
			}
		}
	}
}

// TestBatchAdapterRoundTrip: Rows(Batches(it)) reproduces the input
// stream exactly, at any batch size, including sizes that straddle the
// input length.
func TestBatchAdapterRoundTrip(t *testing.T) {
	rows := [][]string{{"a", "1"}, {"b", "2"}, {"c", ""}, {"d", "4"}, {"e", "5"}}
	for _, n := range []int{1, 2, 3, 5, 100} {
		it := Rows(Batches(NewSliceIterator([]string{"k", "v"}, rows), n))
		got := drain(t, it)
		if !reflect.DeepEqual(got, rows) {
			t.Errorf("rows=%d: %v, want %v", n, got, rows)
		}
		if err := it.Close(); err != nil {
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
		want := drain(t, Filter(NewSliceIterator(cols, cells), ps))
		for _, n := range []int{1, 3, 1024} {
			it := Rows(FilterBatches(Batches(NewSliceIterator(cols, cells), n), ps))
			got := drain(t, it)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("preds=%v rows=%d: %v, want %v", ps, n, got, want)
			}
		}
	}
}

// blockingBatchSource blocks every Next until its gate opens, then
// yields single-row batches — the synthetic stalled member store of
// the batch teardown tests.
type blockingBatchSource struct {
	cols   []string
	gate   chan struct{}
	closes atomic.Int64
}

func (s *blockingBatchSource) Columns() []string { return s.cols }

func (s *blockingBatchSource) Next(ctx context.Context) (*Batch, error) {
	select {
	case <-s.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return NewBatch(s.cols, []*Vector{NewVector([]string{"x"})}), nil
}

func (s *blockingBatchSource) Close() error {
	s.closes.Add(1)
	return nil
}

// TestParallelUnionBatchesCloseMidStreamIsLeakFree: closing the
// parallel batch union with pullers blocked on their sources must
// unblock and join every puller and close every source.
func TestParallelUnionBatchesCloseMidStreamIsLeakFree(t *testing.T) {
	sources := make([]BatchIterator, 4)
	blocked := make([]*blockingBatchSource, 4)
	for i := range sources {
		blocked[i] = &blockingBatchSource{cols: []string{"v"}, gate: make(chan struct{})}
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
		sources[i] = &blockingBatchSource{cols: []string{"v"}, gate: make(chan struct{})}
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
	return NewBatch(s.cols, []*Vector{NewVector([]string{"x"})}), nil
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

// countingBatchSource wraps Batches over a counting row source so the
// test can observe Close propagation through batch stages.
type countingBatchSource struct {
	BatchIterator
	closes atomic.Int64
}

func (c *countingBatchSource) Close() error {
	c.closes.Add(1)
	return c.BatchIterator.Close()
}

// TestLimitBatchesEagerClose: once the cap is reached the input is
// closed immediately, releasing source scans before the consumer's
// Close.
func TestLimitBatchesEagerClose(t *testing.T) {
	rows := make([][]string, 100)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i)}
	}
	src := &countingBatchSource{BatchIterator: Batches(NewSliceIterator([]string{"v"}, rows), 8)}
	it := Rows(LimitBatches(src, 10))
	got := drain(t, it)
	if len(got) != 10 {
		t.Fatalf("got %d rows, want 10", len(got))
	}
	if src.closes.Load() == 0 {
		t.Error("input not closed eagerly at the limit")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchPlanAndStats: the plan line says which pipeline ran, EXPLAIN
// ANALYZE carries the batch count, and Stats reports batches.
func TestBatchPlanAndStats(t *testing.T) {
	e := relEngine(t)
	ctx := context.Background()
	st, err := e.Query(ctx, Request{SQL: "SELECT city FROM rel:hotels_a", Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Plan().String(); !strings.Contains(s, "batch: columnar (1024 rows/batch)") {
		t.Errorf("explain plan missing batch line:\n%s", s)
	}
	_ = st.Close()
	st, err = e.Query(ctx, Request{SQL: "EXPLAIN ANALYZE SELECT city FROM rel:hotels_a, rel:hotels_b", BatchRows: 2})
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

// TestBatchModeFallsBackForNonRelSources: a FROM list with any
// non-relational member runs the row pipeline (and says so in the
// plan), since only the relational store has a batch scan.
func TestBatchModeFallsBackForNonRelSources(t *testing.T) {
	e := federatedEngine(t)
	st, err := e.Query(context.Background(), Request{SQL: "SELECT city, price FROM rel:hotels_a, doc:hotels_b"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.BatchMode() {
		t.Error("batch mode on for a mixed-store federation")
	}
	if s := st.Plan().String(); !strings.Contains(s, "batch: row") {
		t.Errorf("plan missing row-fallback line:\n%s", s)
	}
	if _, err := st.NextBatch(context.Background()); err == nil {
		t.Error("NextBatch on a row-mode stream should error")
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

// TestCollectUsesBatchFace: Collect over a batch-mode stream drains
// column-wise and returns the same table the row pipeline produces.
func TestCollectUsesBatchFace(t *testing.T) {
	e := relEngine(t)
	rowEng := NewEngine(e.Poly)
	rowEng.DisableBatch = true
	ctx := context.Background()
	sql := "SELECT city, price FROM rel:hotels_a, rel:hotels_b WHERE price > 20"
	want, err := rowEng.ExecuteSQL(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.ExecuteSQL(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if wantCSV, gotCSV := table.ToCSV(want), table.ToCSV(got); wantCSV != gotCSV {
		t.Errorf("batch collect:\n%s\nwant:\n%s", gotCSV, wantCSV)
	}
}
