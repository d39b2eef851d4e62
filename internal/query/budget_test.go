package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"golake/internal/storage/polystore"
)

func TestMemBudgetAccounting(t *testing.T) {
	b := NewMemBudget(10)
	if err := b.Acquire(7); err != nil {
		t.Fatalf("acquire 7/10: %v", err)
	}
	if err := b.Acquire(4); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("acquire 11/10 = %v, want ErrBudgetExceeded", err)
	}
	// The failed acquire must have rolled its charge back.
	if err := b.Acquire(3); err != nil {
		t.Fatalf("acquire 10/10 after rollback: %v", err)
	}
	b.Release(10)
	if err := b.Acquire(10); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestMemBudgetNilIsUnlimited(t *testing.T) {
	var b *MemBudget
	if err := b.Acquire(1 << 30); err != nil {
		t.Fatalf("nil budget acquire: %v", err)
	}
	b.Release(1 << 30)
	if NewMemBudget(0) != nil {
		t.Error("NewMemBudget(0) should be nil (unlimited)")
	}
}

// TestSortBudgetFailsFast: an unbounded ORDER BY over more rows than
// the budget allows fails with ErrBudgetExceeded instead of buffering
// the whole input.
func TestSortBudgetFailsFast(t *testing.T) {
	in := &probeSource{cols: []string{"v"}, n: 100, batch: 16, cell: func(i, _ int) string { return fmt.Sprintf("%03d", 99-i) }}
	budget := NewMemBudget(50)
	s := sortBatches(in, []OrderKey{{Column: "v"}}, 0, budget, 1024)
	_, err := s.Next(context.Background())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Next = %v, want ErrBudgetExceeded", err)
	}
	_ = s.Close()
	// The failed fill must have released its charge.
	if err := budget.Acquire(50); err != nil {
		t.Fatalf("budget still charged after failed sort: %v", err)
	}
}

// TestSortTopKUnderBudget: a top-K sort whose heap stays under the
// budget completes even over a much larger input, and the charge is
// returned as rows are emitted.
func TestSortTopKUnderBudget(t *testing.T) {
	in := &probeSource{cols: []string{"v"}, n: 1000, batch: 16, cell: func(i, _ int) string { return fmt.Sprintf("%04d", i) }}
	budget := NewMemBudget(10)
	s := sortBatches(in, []OrderKey{{Column: "v"}}, 10, budget, 3)
	var got int
	for {
		b, err := s.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got += b.Len()
	}
	if got != 10 {
		t.Errorf("rows = %d, want 10", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := budget.Acquire(10); err != nil {
		t.Fatalf("budget not fully released after drain: %v", err)
	}
}

// TestFanInBudgetSurfacesInBand: a parallel union whose queues exceed
// the budget surfaces ErrBudgetExceeded from Next and tears down
// leak-free.
func TestFanInBudgetSurfacesInBand(t *testing.T) {
	// Budget of 1 row: the very first queued batch overruns it.
	it := ParallelUnionBatches(context.Background(), []BatchIterator{countSource("", 500, 8), countSource("", 500, 8)}, nil,
		FanInOptions{Workers: 2, Budget: NewMemBudget(1)}, 8)
	var err error
	for {
		_, err = it.Next(context.Background())
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("fan-in error = %v, want ErrBudgetExceeded", err)
	}
	if cerr := it.Close(); cerr != nil {
		t.Fatalf("Close after budget error: %v", cerr)
	}
}

// TestEngineBudgetEndToEnd: Request.MemoryRows flows through
// Engine.Query into the pipeline and an over-budget ORDER BY fails
// with the sentinel.
func TestEngineBudgetEndToEnd(t *testing.T) {
	e := testEngine(t, 200)
	st, err := e.Query(context.Background(), Request{
		SQL:        "SELECT v FROM rel:budget_rows ORDER BY v",
		MemoryRows: 20,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	_, err = st.Next(context.Background())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Next = %v, want ErrBudgetExceeded", err)
	}
	if p := st.Plan(); p.MemoryRows != 20 {
		t.Errorf("plan memory_rows = %d, want 20", p.MemoryRows)
	}
}

// TestEngineBudgetAllowsFittingQuery: the same query under a
// sufficient budget returns every row.
func TestEngineBudgetAllowsFittingQuery(t *testing.T) {
	e := testEngine(t, 100)
	st, err := e.Query(context.Background(), Request{
		SQL:        "SELECT v FROM rel:budget_rows ORDER BY v",
		MemoryRows: 500,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	var n int
	for {
		_, err := st.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		n++
	}
	if n != 100 {
		t.Errorf("rows = %d, want 100", n)
	}
}

// TestStreamDeadlineExpiresMidStream: a RowStream deadline in the past
// fails Next with context.DeadlineExceeded regardless of the per-call
// context.
func TestStreamDeadlineExpiresMidStream(t *testing.T) {
	e := testEngine(t, 10)
	st, err := e.Query(context.Background(), Request{SQL: "SELECT v FROM rel:budget_rows"})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	if _, err := st.Next(context.Background()); err != nil {
		t.Fatalf("first row before deadline: %v", err)
	}
	st.SetDeadline(time.Now().Add(-time.Millisecond))
	_, err = st.Next(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next past deadline = %v, want context.DeadlineExceeded", err)
	}
	if !errors.Is(st.Err(), context.DeadlineExceeded) {
		t.Errorf("stream Err() = %v", st.Err())
	}
}

// TestEngineFaultHook: the chaos hook fails the pipeline at the "open"
// and "next" (per batch) stages on demand.
func TestEngineFaultHook(t *testing.T) {
	boom := errors.New("injected")
	e := testEngine(t, 10)
	e.Fault = func(stage string) error {
		if stage == "open" {
			return boom
		}
		return nil
	}
	if _, err := e.Query(context.Background(), Request{SQL: "SELECT v FROM rel:budget_rows"}); !errors.Is(err, boom) {
		t.Fatalf("open fault = %v, want injected", err)
	}

	var n int
	e.Fault = func(stage string) error {
		if stage == "next" {
			n++
			if n > 3 {
				return boom
			}
		}
		return nil
	}
	st, err := e.Query(context.Background(), Request{SQL: "SELECT v FROM rel:budget_rows", BatchRows: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	var rows int
	for {
		_, err := st.Next(context.Background())
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("Next = %v, want injected", err)
			}
			break
		}
		rows++
	}
	if rows != 3 {
		t.Errorf("rows before injected fault = %d, want 3", rows)
	}
}

// testEngine builds an engine over one relational table,
// "budget_rows", with n rows of a zero-padded "v" column.
func testEngine(t *testing.T, n int) *Engine {
	t.Helper()
	p, err := polystore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("v\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%05d\n", i)
	}
	if _, err := p.Ingest("raw/budget_rows.csv", []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	return NewEngine(p)
}
