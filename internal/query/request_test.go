package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseOrderBy(t *testing.T) {
	q, err := Parse("SELECT a, b FROM rel:t WHERE a > 1 ORDER BY b DESC, a ASC, c LIMIT 4")
	if err != nil {
		t.Fatal(err)
	}
	want := []OrderKey{{Column: "b", Desc: true}, {Column: "a"}, {Column: "c"}}
	if len(q.Order) != 3 {
		t.Fatalf("order = %+v", q.Order)
	}
	for i, k := range want {
		if q.Order[i] != k {
			t.Errorf("order[%d] = %+v, want %+v", i, q.Order[i], k)
		}
	}
	if q.Limit != 4 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParseExplain(t *testing.T) {
	q, err := Parse("EXPLAIN SELECT * FROM rel:t")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Explain {
		t.Error("Explain not set")
	}
	if got := q.String(); !strings.HasPrefix(got, "EXPLAIN SELECT") {
		t.Errorf("String() = %q", got)
	}
	back, err := Parse(q.String())
	if err != nil || !back.Explain {
		t.Errorf("round-trip explain = %+v (%v)", back, err)
	}
}

func TestParseOrderByErrors(t *testing.T) {
	for _, s := range []string{
		"SELECT a FROM t ORDER",
		"SELECT a FROM t ORDER BY",
		"SELECT a FROM t ORDER BY ,",
		"SELECT a FROM t ORDER BY a,",
	} {
		if _, err := Parse(s); !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q) = %v, want syntax error", s, err)
		}
	}
}

// TestParseQuoteEscaping pins the tokenizer's ” escape: values
// containing quotes survive parse → render → parse.
func TestParseQuoteEscaping(t *testing.T) {
	q, err := Parse("SELECT * FROM rel:t WHERE name = 'o''brien'")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].Value != "o'brien" || q.Where[0].Numeric {
		t.Fatalf("pred = %+v", q.Where[0])
	}
	back, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", q.String(), err)
	}
	if back.Where[0] != q.Where[0] {
		t.Errorf("round-trip pred = %+v, want %+v", back.Where[0], q.Where[0])
	}
}

// TestParseQuotedNumericStaysString: '10' is a string predicate, 10 a
// numeric one, and both survive the round-trip unchanged.
func TestParseQuotedNumericStaysString(t *testing.T) {
	q, err := Parse("SELECT * FROM rel:t WHERE a = '10' AND b = 10")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].Numeric || q.Where[0].Value != "10" {
		t.Fatalf("quoted pred = %+v", q.Where[0])
	}
	if !q.Where[1].Numeric || q.Where[1].Value != "10" {
		t.Fatalf("bare pred = %+v", q.Where[1])
	}
	back, err := Parse(q.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.Where[0].Numeric || !back.Where[1].Numeric {
		t.Errorf("round-trip lost quoting: %+v", back.Where)
	}
}

// TestParseRenderRoundTripHostileValues property-tests the round-trip
// over values containing quotes, numeric-looking strings, and ORDER BY
// clauses — the ambiguities the escaping rework exists to remove.
func TestParseRenderRoundTripHostileValues(t *testing.T) {
	vals := []string{"o'brien", "10", "''", "a'b'c", "3.5x", "-2", "it''s", "'"}
	f := func(valIdx, opIdx uint8, quoted, desc bool, limit uint8) bool {
		ops := []CmpOp{OpEq, OpNe, OpGt, OpGte, OpLt, OpLte}
		val := vals[int(valIdx)%len(vals)]
		pred := Predicate{Column: "c", Op: ops[int(opIdx)%len(ops)], Value: val}
		if !quoted {
			// Unquoted values are only representable when numeric.
			if _, err := fmt.Sscanf(val, "%f", new(float64)); err == nil && !strings.ContainsAny(val, "'x") {
				pred.Numeric = true
			}
		}
		q := &Query{
			Columns: []string{"c", "d"},
			Sources: []string{"rel:t"},
			Where:   []Predicate{pred},
			Order:   []OrderKey{{Column: "c", Desc: desc}},
			Limit:   int(limit),
		}
		back, err := Parse(q.String())
		if err != nil {
			t.Logf("render %q: %v", q.String(), err)
			return false
		}
		if len(back.Where) != 1 || back.Where[0] != q.Where[0] {
			t.Logf("pred %+v -> %q -> %+v", q.Where[0], q.String(), back.Where)
			return false
		}
		if len(back.Order) != 1 || back.Order[0] != q.Order[0] || back.Limit != q.Limit {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// collectCSV renders a stream as CSV text for byte-identity checks.
func collectCSV(t *testing.T, it RowIterator) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(strings.Join(it.Columns(), ",") + "\n")
	ctx := context.Background()
	for {
		row, err := it.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(strings.Join(row, ",") + "\n")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// multiSourcePoly builds a three-store fixture with overlapping
// columns for federated ordering tests.
func multiSourcePoly(t *testing.T) *Engine {
	t.Helper()
	p := setupPoly(t)
	var csv strings.Builder
	csv.WriteString("id,status,total\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&csv, "m%d,open,%d.5\n", i, (i*37)%101)
	}
	if _, err := p.Ingest("raw/more_orders.csv", []byte(csv.String())); err != nil {
		t.Fatal(err)
	}
	return NewEngine(p)
}

// TestOrderByDeterministicAcrossFanInWidths is the acceptance pin: an
// ORDER BY query returns byte-identical output at fan-in 1, 2, 4 and 8
// (run under -race in CI).
func TestOrderByDeterministicAcrossFanInWidths(t *testing.T) {
	e := multiSourcePoly(t)
	ctx := context.Background()
	const sql = "SELECT id, total FROM rel:orders, rel:more_orders, doc:events ORDER BY total DESC, id LIMIT 50"
	var want string
	for _, w := range []int{1, 2, 4, 8} {
		st, err := e.Query(ctx, Request{SQL: sql, FanIn: w})
		if err != nil {
			t.Fatalf("fanin=%d: %v", w, err)
		}
		got := collectCSV(t, st)
		if w == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("fanin=%d output differs from sequential:\n%s\nvs\n%s", w, got, want)
		}
	}
}

// TestEngineQueryDefaultsFanInOn: a zero-value Request fans in at the
// CPU-wide default; FanIn: 1 selects the sequential plan.
func TestEngineQueryDefaultsFanInOn(t *testing.T) {
	e := multiSourcePoly(t)
	ctx := context.Background()
	st, err := e.Query(ctx, Request{SQL: "SELECT id FROM rel:orders, rel:more_orders"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wantW := DefaultFanIn()
	if wantW > 2 {
		wantW = 2 // clamped to the source count
	}
	if got := st.Plan().FanIn; got != wantW {
		t.Errorf("default plan fan-in = %d, want %d", got, wantW)
	}
	seq, err := e.Query(ctx, Request{SQL: "SELECT id FROM rel:orders, rel:more_orders", FanIn: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	if got := seq.Plan().FanIn; got != 1 {
		t.Errorf("FanIn:1 plan fan-in = %d, want 1", got)
	}
}

// TestEngineQueryRequestOptionsCompose: request Order overrides the
// statement, the stricter Limit wins, and the plan reflects both.
func TestEngineQueryRequestOptionsCompose(t *testing.T) {
	e := multiSourcePoly(t)
	ctx := context.Background()
	st, err := e.Query(ctx, Request{
		SQL:   "SELECT id, total FROM rel:more_orders ORDER BY id LIMIT 100",
		Order: []OrderKey{{Column: "total", Desc: true}},
		Limit: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, st)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (stricter limit)", len(rows))
	}
	prev := rows[0][1]
	for _, r := range rows[1:] {
		if compareCells(r[1], prev) > 0 {
			t.Errorf("request order override not applied: %v", rows)
		}
		prev = r[1]
	}
	if st.Plan().Sort != "top-k heap (k=3)" {
		t.Errorf("plan sort = %q", st.Plan().Sort)
	}
}

// TestEngineQueryStats: per-source counters report the rows pulled
// from each member store.
func TestEngineQueryStats(t *testing.T) {
	e := multiSourcePoly(t)
	ctx := context.Background()
	st, err := e.Query(ctx, Request{SQL: "SELECT id FROM rel:orders, rel:more_orders", FanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, st)
	if len(rows) != 203 {
		t.Fatalf("rows = %d", len(rows))
	}
	es := st.Stats()
	if es.RowsOut != 203 {
		t.Errorf("rows_out = %d", es.RowsOut)
	}
	if len(es.Sources) != 2 {
		t.Fatalf("sources = %+v", es.Sources)
	}
	bySrc := map[string]int64{}
	for _, s := range es.Sources {
		bySrc[s.Source] = s.Rows
	}
	if bySrc["rel:orders"] != 3 || bySrc["rel:more_orders"] != 200 {
		t.Errorf("per-source rows = %v", bySrc)
	}
}

// TestExplainGolden pins the typed plan and its rendering for a
// representative federated query (fan-in pinned so the golden text is
// machine-independent).
func TestExplainGolden(t *testing.T) {
	e := multiSourcePoly(t)
	ctx := context.Background()
	st, err := e.Query(ctx, Request{
		SQL:   "EXPLAIN SELECT id, total FROM rel:orders, doc:events WHERE total > 10 ORDER BY total DESC LIMIT 5",
		FanIn: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.ExplainOnly() {
		t.Fatal("EXPLAIN stream not marked explain-only")
	}
	if rows := drain(t, st); len(rows) != 0 {
		t.Fatalf("EXPLAIN returned rows: %v", rows)
	}
	golden := strings.Join([]string{
		"EXPLAIN SELECT id, total FROM rel:orders, doc:events WHERE total > 10 ORDER BY total DESC LIMIT 5",
		"  union: parallel fan-in 2 (buffer 1024 rows/source)",
		"  batch: columnar (1024 rows/batch)",
		"  sort: top-k heap (k=5) [total DESC]",
		"  limit: 5",
		"  source rel:orders: rel scan, table orders, pushdown [total > 10], project [id, total]",
		"  source doc:events: doc scan, collection events, pushdown [total > 10]",
		"",
	}, "\n")
	if got := st.Plan().String(); got != golden {
		t.Errorf("plan rendering:\n%s\nwant:\n%s", got, golden)
	}
}

// TestExplainUnknownSourceErrors: planning resolves sources, so
// EXPLAIN of a missing table fails like execution would.
func TestExplainUnknownSourceErrors(t *testing.T) {
	e := multiSourcePoly(t)
	if _, err := e.Query(context.Background(), Request{SQL: "EXPLAIN SELECT * FROM ghost"}); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("explain unknown source = %v", err)
	}
}

// TestOrderByUnprojectedColumnErrors: a sort key absent from the
// result header is an invalid query — both at execution and in the
// EXPLAIN plan — never a silently wrong order.
func TestOrderByUnprojectedColumnErrors(t *testing.T) {
	e := multiSourcePoly(t)
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT id FROM rel:more_orders ORDER BY total",
		"EXPLAIN SELECT id FROM rel:more_orders ORDER BY total",
	} {
		if _, err := e.Query(ctx, Request{SQL: sql}); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: err = %v, want ErrSyntax", sql, err)
		}
	}
	// A request-level override is validated the same way.
	if _, err := e.Query(ctx, Request{
		SQL:   "SELECT id FROM rel:more_orders",
		Order: []OrderKey{{Column: "total"}},
	}); !errors.Is(err, ErrSyntax) {
		t.Errorf("request order override: err = %v, want ErrSyntax", err)
	}
	// SELECT * carries every source column, so the key resolves.
	st, err := e.Query(ctx, Request{SQL: "SELECT * FROM rel:more_orders ORDER BY total LIMIT 1"})
	if err != nil {
		t.Fatalf("SELECT * ORDER BY: %v", err)
	}
	st.Close()
	// EXPLAIN resolves SELECT * headers from the stores, so it rejects
	// (and accepts) exactly what execution would.
	if _, err := e.Query(ctx, Request{SQL: "EXPLAIN SELECT * FROM rel:more_orders ORDER BY nosuchcol"}); !errors.Is(err, ErrSyntax) {
		t.Errorf("EXPLAIN SELECT * bad key: err = %v, want ErrSyntax", err)
	}
	ex, err := e.Query(ctx, Request{SQL: "EXPLAIN SELECT * FROM rel:more_orders, doc:events ORDER BY total"})
	if err != nil {
		t.Fatalf("EXPLAIN SELECT * good key: %v", err)
	}
	ex.Close()
}

// TestSortHonorsCancellationMidEmission: cancelling between batches
// stops a sorted stream even though the buffer is already filled.
func TestSortHonorsCancellationMidEmission(t *testing.T) {
	in := rowsSource([]string{"v"}, [][]string{{"3"}, {"1"}, {"2"}}, 3)
	s := sortBatches(in, []OrderKey{{Column: "v"}}, 0, nil, 1)
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := s.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := s.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Next after cancel = %v, want canceled", err)
	}
}

// TestCombineLimit pins the stricter-cap composition.
func TestCombineLimit(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {5, 0, 5}, {0, 5, 5}, {3, 5, 3}, {5, 3, 3},
	}
	for _, c := range cases {
		if got := CombineLimit(c.a, c.b); got != c.want {
			t.Errorf("CombineLimit(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
