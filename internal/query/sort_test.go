package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// sortRows runs the sort stage over rows (served in batches of three)
// and returns what it emits.
func sortRows(t *testing.T, cols []string, rows [][]string, keys []OrderKey, limit int) [][]string {
	t.Helper()
	return drainBatches(t, sortBatches(rowsSource(cols, rows, 3), keys, limit, nil, 2))
}

func TestSortOrdersRows(t *testing.T) {
	got := sortRows(t, []string{"name", "age"}, [][]string{
		{"carol", "41"},
		{"alice", "30"},
		{"bob", "25"},
	}, []OrderKey{{Column: "age"}}, 0)
	var names []string
	for _, r := range got {
		names = append(names, r[0])
	}
	if strings.Join(names, ",") != "bob,alice,carol" {
		t.Errorf("sorted names = %v, want bob,alice,carol", names)
	}
}

func TestSortDescAndSecondaryKey(t *testing.T) {
	got := sortRows(t, []string{"city", "price"}, [][]string{
		{"berlin", "10"},
		{"athens", "20"},
		{"madrid", "20"},
		{"paris", "5"},
	}, []OrderKey{{Column: "price", Desc: true}, {Column: "city"}}, 0)
	var cities []string
	for _, r := range got {
		cities = append(cities, r[0])
	}
	if strings.Join(cities, ",") != "athens,madrid,berlin,paris" {
		t.Errorf("order = %v", cities)
	}
}

// TestSortMixedNumericAndStringKeys pins the total order on
// heterogeneous cells: numeric cells compare numerically and sort
// before non-numeric ones, so "2" < "10" < "1a" consistently — with or
// without a top-K limit. NaN parses as a float but sorts as text.
func TestSortMixedNumericAndStringKeys(t *testing.T) {
	for _, tc := range []struct {
		rows [][]string
		want string
	}{
		{[][]string{{"1a"}, {"10"}, {"abc"}, {"2"}, {""}, {"-3"}}, "-3|2|10||1a|abc"},
		{[][]string{{"NaN"}, {"abc"}, {"2"}, {"+Inf"}}, "2|+Inf|NaN|abc"},
	} {
		for _, limit := range []int{0, len(tc.rows)} {
			var vals []string
			for _, r := range sortRows(t, []string{"v"}, tc.rows, []OrderKey{{Column: "v"}}, limit) {
				vals = append(vals, r[0])
			}
			if strings.Join(vals, "|") != tc.want {
				t.Errorf("limit=%d: mixed order = %v, want %s", limit, vals, tc.want)
			}
		}
	}
}

// TestSortDeterministicUnderShuffledInput is the ordering guarantee
// parallel fan-in relies on: any arrival order sorts to byte-identical
// output, including full-row tiebreaks for rows equal under the keys,
// whether the stage keeps a top-K heap or sorts everything.
func TestSortDeterministicUnderShuffledInput(t *testing.T) {
	base := make([][]string, 0, 100)
	for i := 0; i < 100; i++ {
		base = append(base, []string{fmt.Sprint(i % 7), fmt.Sprintf("p%d", i%13), fmt.Sprint(i)})
	}
	keys := []OrderKey{{Column: "k"}, {Column: "p", Desc: true}}
	rng := rand.New(rand.NewSource(42))
	for _, limit := range []int{0, 30} {
		var want string
		for trial := 0; trial < 5; trial++ {
			shuffled := append([][]string(nil), base...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			var sb strings.Builder
			for _, r := range sortRows(t, []string{"k", "p", "id"}, shuffled, keys, limit) {
				sb.WriteString(strings.Join(r, ",") + "\n")
			}
			if trial == 0 {
				want = sb.String()
			} else if sb.String() != want {
				t.Fatalf("limit=%d trial %d produced different order", limit, trial)
			}
		}
	}
}

// TestSortTopKMemoryBound pins the heap bound via a counting source:
// the sort must pull every input row, yet never hold more than LIMIT
// rows.
func TestSortTopKMemoryBound(t *testing.T) {
	const n, limit = 10000, 7
	src := &probeSource{cols: []string{"v"}, n: n, batch: 64, cell: func(i, _ int) string { return fmt.Sprint((i * 7919) % n) }}
	s := sortBatches(src, []OrderKey{{Column: "v"}}, limit, nil, 1024)
	got := drainBatches(t, s)
	if len(got) != limit {
		t.Fatalf("emitted %d rows, want %d", len(got), limit)
	}
	for i, r := range got {
		if r[0] != fmt.Sprint(i) {
			t.Errorf("row %d = %v, want %d", i, r, i)
		}
	}
	if pulled := src.pulled.Load(); pulled != n {
		t.Errorf("pulled %d rows from source, want all %d", pulled, n)
	}
	if held := s.maxHeld.Load(); held > limit {
		t.Errorf("heap held %d rows, bound is %d", held, limit)
	}
	if src.closes.Load() == 0 {
		t.Error("source not closed after drain")
	}
}

// TestSortEarlyCloseReleasesBuffer: closing mid-emission must release
// the buffered rows (no retained backing array) and the input, and
// stay idempotent.
func TestSortEarlyCloseReleasesBuffer(t *testing.T) {
	src := rowsSource([]string{"v"}, [][]string{{"3"}, {"1"}, {"2"}}, 1)
	s := sortBatches(src, []OrderKey{{Column: "v"}}, 2, nil, 1)
	ctx := context.Background()
	if _, err := s.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s.buf != nil {
		t.Error("Close left the sort buffer retained")
	}
	if src.closes.Load() == 0 {
		t.Error("Close did not release the input")
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := s.Next(ctx); err != io.EOF {
		t.Errorf("Next after Close = %v, want EOF", err)
	}
}

// TestSortBufferReleasedOnExhaustion: once the last row is emitted the
// buffer is dropped even without a Close call.
func TestSortBufferReleasedOnExhaustion(t *testing.T) {
	s := sortBatches(rowsSource([]string{"v"}, [][]string{{"2"}, {"1"}}, 1), []OrderKey{{Column: "v"}}, 0, nil, 1)
	if rows := drainBatches(t, s); len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if s.buf != nil {
		t.Error("exhausted sort still retains its buffer")
	}
}

// TestSortPropagatesSourceError: a mid-drain source failure is sticky
// and releases everything.
func TestSortPropagatesSourceError(t *testing.T) {
	boom := errors.New("boom")
	src := rowsSource([]string{"v"}, [][]string{{"1"}, {"2"}}, 1)
	src.err, src.failAfter = boom, 1
	s := sortBatches(src, []OrderKey{{Column: "v"}}, 0, nil, 1)
	ctx := context.Background()
	if _, err := s.Next(ctx); !errors.Is(err, boom) {
		t.Fatalf("Next = %v, want boom", err)
	}
	if src.closes.Load() == 0 {
		t.Error("failed drain did not close the input")
	}
	if _, err := s.Next(ctx); !errors.Is(err, boom) {
		t.Errorf("error not sticky: %v", err)
	}
	if s.buf != nil {
		t.Error("failed sort retains its buffer")
	}
}

// TestSequentialUnionCloseIdempotentWithSort: the sequential union
// under a sort stage closes exactly once per source and tolerates
// repeated Close — the pipeline the sort stage tears down eagerly.
func TestSequentialUnionCloseIdempotentWithSort(t *testing.T) {
	a := rowsSource([]string{"v"}, [][]string{{"2"}}, 1)
	b := rowsSource([]string{"v"}, [][]string{{"1"}}, 1)
	u := UnionBatches([]BatchIterator{a, b}, nil)
	s := sortBatches(u, []OrderKey{{Column: "v"}}, 0, nil, 1)
	rows := drainBatches(t, s)
	if len(rows) != 2 || rows[0][0] != "1" {
		t.Fatalf("rows = %v", rows)
	}
	// The sort already closed the union on drain; every further Close —
	// on the stage or the union — must be a no-op.
	for i := 0; i < 2; i++ {
		if err := s.Close(); err != nil {
			t.Errorf("sort Close #%d: %v", i+1, err)
		}
		if err := u.Close(); err != nil {
			t.Errorf("union Close #%d: %v", i+1, err)
		}
	}
	if a.closes.Load() != 1 || b.closes.Load() != 1 {
		t.Errorf("source close counts = %d, %d; want 1, 1", a.closes.Load(), b.closes.Load())
	}
}
