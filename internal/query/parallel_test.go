package query

import (
	"context"
	"errors"
	"io"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"golake/internal/storage/polystore"
)

// federatedEngine builds an engine over a relational table and two
// document collections sharing overlapping headers, so fan-in is
// exercised across genuinely heterogeneous scans.
func federatedEngine(t *testing.T) *Engine {
	t.Helper()
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
	if _, err := p.Ingest("raw/hotels_g.jsonl", []byte("{\"city\":\"kyoto\",\"price\":70}\n{\"city\":\"lima\",\"price\":25}\n")); err != nil {
		t.Fatal(err)
	}
	return NewEngine(p)
}

// TestParallelUnionSetEqualsSequential pins the semantics contract:
// across fan-in widths and queue depths, the parallel union yields
// exactly the sequential union's header and row multiset —
// heterogeneous headers, null padding, and explicit projections
// included. Only the interleaving may differ.
func TestParallelUnionSetEqualsSequential(t *testing.T) {
	mkSources := func() []BatchIterator {
		return []BatchIterator{
			rowsSource([]string{"city", "price"}, [][]string{{"ams", "10"}, {"rome", "20"}}, 2),
			rowsSource([]string{"price", "stars"}, [][]string{{"30", "4"}, {"15", "2"}, {"50", "5"}}, 2),
			rowsSource([]string{"city"}, [][]string{{"oslo"}}, 2),
			rowsSource([]string{"stars", "city"}, [][]string{{"1", "bern"}}, 2),
		}
	}
	for _, want := range [][]string{nil, {"price", "city"}} {
		seq := UnionBatches(mkSources(), want)
		wantHeader := seq.Columns()
		wantRows := sortedRows(drainBatches(t, seq))
		if err := seq.Close(); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			// The batch size sets the queue depth: 128 batches at 2 rows,
			// one at DefaultFanInBufferRows.
			for _, batch := range []int{2, DefaultFanInBufferRows} {
				it := ParallelUnionBatches(context.Background(), mkSources(), want,
					FanInOptions{Workers: workers}, batch)
				if got := it.Columns(); !reflect.DeepEqual(got, wantHeader) {
					t.Fatalf("workers=%d batch=%d: header %v, want %v", workers, batch, got, wantHeader)
				}
				got := sortedRows(drainBatches(t, it))
				if !reflect.DeepEqual(got, wantRows) {
					t.Errorf("workers=%d batch=%d want=%v: rows %v, want %v", workers, batch, want, got, wantRows)
				}
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestParallelUnionDegeneratesToSequential pins the fanin=1 contract:
// with Workers <= 1 the parallel constructor returns the sequential
// union itself, so ordering-sensitive callers keep byte-identical
// behavior.
func TestParallelUnionDegeneratesToSequential(t *testing.T) {
	sources := []BatchIterator{
		rowsSource([]string{"a"}, [][]string{{"1"}}, 1),
		rowsSource([]string{"a"}, [][]string{{"2"}}, 1),
	}
	it := ParallelUnionBatches(context.Background(), sources, nil, FanInOptions{Workers: 1}, 1)
	if _, ok := it.(*unionBatchIterator); !ok {
		t.Fatalf("Workers=1 returned %T, want the sequential *unionBatchIterator", it)
	}
	rows := drainBatches(t, it)
	if want := [][]string{{"1"}, {"2"}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %v, want %v (concatenation order)", rows, want)
	}
}

// TestParallelUnionSlowSourceDoesNotStallOthers is the point of the
// fan-in: while one source is fully blocked, every other source's rows
// must still reach the consumer.
func TestParallelUnionSlowSourceDoesNotStallOthers(t *testing.T) {
	gate := make(chan struct{})
	blocked := &gatedSource{cols: []string{"a"}, gate: gate, rows: []Row{{"late"}}}
	fast1 := countSource("x", 5, 1)
	fast2 := countSource("y", 5, 1)
	it := ParallelUnionBatches(context.Background(), []BatchIterator{blocked, fast1, fast2}, nil,
		FanInOptions{Workers: 3}, 1)
	defer it.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got := 0
	for got < 10 { // all 10 fast rows, while the gate stays shut
		b, err := it.Next(ctx)
		if err != nil {
			t.Fatalf("fast rows stalled behind a blocked source: %v (got %d rows)", err, got)
		}
		got += b.Len()
	}
	close(gate) // release the slow source; its row plus EOF must follow
	if rest := drainBatches(t, it); !reflect.DeepEqual(rest, [][]string{{"late"}}) {
		t.Errorf("after releasing the gate got %v, want [[late]]", rest)
	}
}

// TestParallelUnionBackpressure pins the bounded-buffer contract: a
// paused consumer must cap how far a fast source can run ahead at
// roughly the fan-in window, not drain it to completion.
func TestParallelUnionBackpressure(t *testing.T) {
	const batch = 8
	window := fanInDepth(batch) * batch
	src := countSource("x", 100000, batch)
	other := countSource("y", 1, batch)
	it := ParallelUnionBatches(context.Background(), []BatchIterator{src, other}, nil,
		FanInOptions{Workers: 2}, batch)
	defer it.Close()
	if _, err := it.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Give the puller every chance to overrun; the queue must stop it.
	deadline := time.Now().Add(200 * time.Millisecond)
	var most int64
	for time.Now().Before(deadline) {
		most = max(most, src.pulled.Load())
		time.Sleep(5 * time.Millisecond)
	}
	// The puller may hold one batch in hand beside a full queue, and the
	// consumer holds the batch it was served.
	if limit := int64(window + 2*batch); most > limit {
		t.Errorf("paused consumer: source ran %d rows ahead, want <= %d (window %d rows)", most, limit, window)
	}
}

// TestParallelUnionErrorPropagatesAndClosesAll: the first source error
// surfaces in-band from Next (sticky), and by the time Close returns,
// every source — erroring, healthy, and not-yet-drained — is closed
// exactly once.
func TestParallelUnionErrorPropagatesAndClosesAll(t *testing.T) {
	boom := errors.New("store exploded")
	bad := countSource("ok", 100, 1)
	bad.err, bad.failAfter = boom, 2
	good := countSource("x", 100000, 1)
	slow := &gatedSource{cols: []string{"a"}, gate: make(chan struct{})}
	it := ParallelUnionBatches(context.Background(), []BatchIterator{bad, good, slow}, nil,
		FanInOptions{Workers: 3}, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var err error
	for {
		if _, err = it.Next(ctx); err != nil {
			break
		}
	}
	if !errors.Is(err, boom) {
		t.Fatalf("Next error = %v, want %v", err, boom)
	}
	if _, err2 := it.Next(ctx); !errors.Is(err2, boom) {
		t.Errorf("error must be sticky: second Next = %v", err2)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	for name, closes := range map[string]int64{
		"erroring": bad.closes.Load(), "healthy": good.closes.Load(), "blocked": slow.closes.Load(),
	} {
		if closes != 1 {
			t.Errorf("%s source closed %d times, want exactly 1", name, closes)
		}
	}
}

// TestParallelUnionCloseMidStreamIsLeakFree: an early Close must stop
// every puller (including ones blocked on a full queue and ones
// blocked inside the source) and close every source.
func TestParallelUnionCloseMidStreamIsLeakFree(t *testing.T) {
	fast := countSource("x", 1000000, 4)
	blocked := &gatedSource{cols: []string{"a"}, gate: make(chan struct{})}
	it := ParallelUnionBatches(context.Background(), []BatchIterator{fast, blocked}, nil,
		FanInOptions{Workers: 2}, 4)
	if _, err := it.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Close waits for the pullers via WaitGroup, so returning at all
	// proves they exited; -race plus goroutine accounting in CI guards
	// the rest.
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if fast.closes.Load() != 1 || blocked.closes.Load() != 1 {
		t.Errorf("closes: fast=%d blocked=%d, want 1 and 1", fast.closes.Load(), blocked.closes.Load())
	}
	if _, err := it.Next(context.Background()); err != io.EOF {
		t.Errorf("Next after Close = %v, want io.EOF", err)
	}
	if err := it.Close(); err != nil {
		t.Errorf("Close must be idempotent: %v", err)
	}
}

// TestParallelUnionConsumerCancelUnblocksAndTearsDown: cancelling the
// open context (not just the per-Next one) stops the fan-in leak-free.
func TestParallelUnionConsumerCancelUnblocksAndTearsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	it := ParallelUnionBatches(ctx, []BatchIterator{countSource("x", 1000000, 4), countSource("y", 1000000, 4)}, nil,
		FanInOptions{Workers: 2}, 4)
	if _, err := it.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Draining after cancel must terminate (either buffered batches then
	// an error, or an immediate context error) — never hang.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := it.Next(ctx); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not observe cancellation")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelUnionOpenCtxCancelDoesNotHangNext: cancelling the
// stream-open context while the consumer polls with a different, live
// context must surface the cancellation — pullers exit without terminal
// hops, so Next must not wait for them forever.
func TestParallelUnionOpenCtxCancelDoesNotHangNext(t *testing.T) {
	openCtx, cancel := context.WithCancel(context.Background())
	sources := []BatchIterator{countSource("x", 1000000, 8), countSource("y", 1000000, 8)}
	it := ParallelUnionBatches(openCtx, sources, nil, FanInOptions{Workers: 2}, 8)
	defer it.Close()
	if _, err := it.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	cancel()
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := it.Next(context.Background()); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Next after open-ctx cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next hung after the open context was cancelled")
	}
	if _, err := it.Next(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation must be sticky: %v", err)
	}
}

// concurrencyProbe is a source that records how many probes are being
// drained at once: in flight from its first Next to its EOF.
type concurrencyProbe struct {
	left           int
	started        bool
	inFlight, peak *atomic.Int64
}

func (c *concurrencyProbe) Columns() []string { return []string{"a"} }

func (c *concurrencyProbe) Next(context.Context) (*Batch, error) {
	if !c.started {
		c.started = true
		cur := c.inFlight.Add(1)
		for {
			p := c.peak.Load()
			if cur <= p || c.peak.CompareAndSwap(p, cur) {
				break
			}
		}
	}
	if c.left == 0 {
		c.inFlight.Add(-1)
		return nil, io.EOF
	}
	c.left--
	time.Sleep(time.Millisecond)
	return NewBatch([]*Vector{NewVector([]string{"x"})}), nil
}

func (c *concurrencyProbe) Close() error { return nil }

// TestParallelUnionWorkersCapLimitsConcurrency: with Workers=2 over
// four sources, no more than two sources are ever in flight at once.
func TestParallelUnionWorkersCapLimitsConcurrency(t *testing.T) {
	var inFlight, peak atomic.Int64
	sources := make([]BatchIterator, 4)
	for i := range sources {
		sources[i] = &concurrencyProbe{left: 5, inFlight: &inFlight, peak: &peak}
	}
	it := ParallelUnionBatches(context.Background(), sources, nil, FanInOptions{Workers: 2}, 1)
	drainBatches(t, it)
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrent sources = %d, want <= 2 (Workers cap)", p)
	}
}

// TestUnionErrorClosesAllRemainingSources pins the sequential union's
// error path: a mid-stream source failure eagerly closes every
// remaining source — the current one and the not-yet-reached ones — and
// the error is sticky across Next calls.
func TestUnionErrorClosesAllRemainingSources(t *testing.T) {
	boom := errors.New("scan failed")
	done := countSource("x", 1, 1)
	bad := countSource("ok", 10, 1)
	bad.err, bad.failAfter = boom, 1
	unreached := countSource("y", 1, 1)
	it := UnionBatches([]BatchIterator{done, bad, unreached}, nil)
	var err error
	for {
		if _, err = it.Next(context.Background()); err != nil {
			break
		}
	}
	if !errors.Is(err, boom) {
		t.Fatalf("Next = %v, want %v", err, boom)
	}
	if done.closes.Load() != 1 {
		t.Errorf("drained source closed %d times, want 1", done.closes.Load())
	}
	if bad.closes.Load() != 1 {
		t.Errorf("erroring source closed %d times, want 1 (eager close on error)", bad.closes.Load())
	}
	if unreached.closes.Load() != 1 {
		t.Errorf("not-yet-reached source closed %d times, want 1 (eager close on error)", unreached.closes.Load())
	}
	if _, err2 := it.Next(context.Background()); !errors.Is(err2, boom) {
		t.Errorf("error must be sticky: Next after error = %v", err2)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close after error-close: %v", err)
	}
	if done.closes.Load() != 1 || bad.closes.Load() != 1 || unreached.closes.Load() != 1 {
		t.Errorf("Close after eager close double-closed: %d/%d/%d",
			done.closes.Load(), bad.closes.Load(), unreached.closes.Load())
	}
}

// TestUnionCloseIdempotent: Close twice closes each source once.
func TestUnionCloseIdempotent(t *testing.T) {
	a := countSource("x", 3, 1)
	b := countSource("y", 3, 1)
	it := UnionBatches([]BatchIterator{a, b}, nil)
	if _, err := it.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if a.closes.Load() != 1 || b.closes.Load() != 1 {
		t.Errorf("closes a=%d b=%d, want 1 and 1", a.closes.Load(), b.closes.Load())
	}
}

// TestEngineParallelFanInMatchesSequential runs a real federated query
// (relational + document sources) both ways and asserts header
// equality and row-multiset equality.
func TestEngineParallelFanInMatchesSequential(t *testing.T) {
	e := federatedEngine(t)
	sql := "SELECT city, price FROM rel:hotels_a, doc:hotels_b, doc:hotels_g"
	seq, err := e.Query(context.Background(), Request{SQL: sql, FanIn: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := seq.Columns()
	wantRows := sortedRows(drain(t, seq))
	_ = seq.Close()
	for _, workers := range []int{2, 4, 8} {
		st, err := e.Query(context.Background(), Request{SQL: sql, FanIn: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Columns(); !reflect.DeepEqual(got, wantHeader) {
			t.Fatalf("workers=%d: header %v, want %v", workers, got, wantHeader)
		}
		got := sortedRows(drain(t, st))
		if !reflect.DeepEqual(got, wantRows) {
			t.Errorf("workers=%d: rows %v, want %v", workers, got, wantRows)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineParallelOpenSurfacesFirstError: a failing FROM item must
// surface its resolution error from the parallel open, with the opened
// sources released.
func TestEngineParallelOpenSurfacesFirstError(t *testing.T) {
	e := federatedEngine(t)
	_, err := e.Query(context.Background(), Request{SQL: "SELECT city FROM rel:hotels_a, rel:ghost, doc:hotels_b", FanIn: 4})
	if !errors.Is(err, polystore.ErrNoTable) {
		t.Fatalf("parallel open err = %v, want %v", err, polystore.ErrNoTable)
	}
}
