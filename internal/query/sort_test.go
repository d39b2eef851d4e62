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
	return sortIn(t, cols, rows, keys, limit, 3, false)
}

// sortIn runs the sort stage over rows served batch rows at a time,
// through FilterBatches keeping the rows whose "keep" cell is "y" when
// filtered, so the stage reads a selection.
func sortIn(t *testing.T, cols []string, rows [][]string, keys []OrderKey, limit, batch int, filtered bool) [][]string {
	t.Helper()
	var in BatchIterator = rowsSource(cols, rows, batch)
	if filtered {
		in = FilterBatches(in, []Predicate{{Column: "keep", Op: OpEq, Value: "y"}})
	}
	return drainBatches(t, sortBatches(in, keys, limit, nil, 2))
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
// without a top-K limit, including limits below the row count, where
// mixed-type rows arrive at a full heap. NaN parses as a float but
// sorts as text.
func TestSortMixedNumericAndStringKeys(t *testing.T) {
	for _, tc := range []struct {
		rows [][]string
		want string
	}{
		{[][]string{{"1a"}, {"10"}, {"abc"}, {"2"}, {""}, {"-3"}}, "-3|2|10||1a|abc"},
		{[][]string{{"NaN"}, {"abc"}, {"2"}, {"+Inf"}}, "2|+Inf|NaN|abc"},
		{[][]string{{"abc"}, {"NaN"}, {"+Inf"}, {""}, {"2"}, {"1a"}, {"-Inf"}}, "-Inf|2|+Inf||1a|NaN|abc"},
	} {
		want := strings.Split(tc.want, "|")
		for _, limit := range []int{0, 1, 2, len(tc.rows) - 1, len(tc.rows)} {
			var vals []string
			for _, r := range sortRows(t, []string{"v"}, tc.rows, []OrderKey{{Column: "v"}}, limit) {
				vals = append(vals, r[0])
			}
			n := len(want)
			if limit > 0 {
				n = limit
			}
			if strings.Join(vals, "|") != strings.Join(want[:n], "|") {
				t.Errorf("limit=%d: mixed order = %v, want %v", limit, vals, want[:n])
			}
		}
	}
}

// topKCells are the key cells the top-K tests draw from: one number
// spelled four ways, signed zeros, NaN and infinities, text that
// parses and text that does not, and the empty cell.
var topKCells = []string{
	"7", "007", "7.0", "+7", "0", "-0", "-3", "1e3", "1000", "NaN", "+Inf", "-Inf",
	"", "abc", "Abc", "7a", " 7", "1e400", "0x10", "é",
}

// checkTopKPrefixes asserts that every limit in {1, 2, n/2, n-1, n,
// n+1} emits the first limit rows of the full sort of the same input.
func checkTopKPrefixes(t *testing.T, cols []string, rows [][]string, keys []OrderKey, batch int, filtered bool) {
	t.Helper()
	full := sortIn(t, cols, rows, keys, 0, batch, filtered)
	n := len(full)
	for _, limit := range []int{1, 2, n / 2, n - 1, n, n + 1} {
		if limit <= 0 {
			continue
		}
		got := sortIn(t, cols, rows, keys, limit, batch, filtered)
		want := full[:min(limit, n)]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("keys %v, batch %d, filtered %v, limit %d:\n got %q\nwant %q", keys, batch, filtered, limit, got, want)
		}
	}
}

// TestSortTopKEquivalence: top-K turns rows away on their first key
// alone once its heap is full, and must emit exactly the prefix of the
// full sort — over heavy first-key ties, mixed numeric and text cells,
// a key column the input lacks, one and two keys in either direction,
// batch sizes 1, 7 and 1024, with and without a selection.
func TestSortTopKEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cols := []string{"k0", "k1", "keep", "id"}
	const n = 120
	rows := make([][]string, n)
	for i := range rows {
		// Key 0 draws mostly from its first four cells (one number
		// spelled four ways), so it ties heavily.
		k0 := topKCells[rng.Intn(4)]
		if rng.Intn(3) == 0 {
			k0 = topKCells[rng.Intn(len(topKCells))]
		}
		keep := "y"
		if rng.Intn(3) == 0 {
			keep = "n"
		}
		// ids repeat, so some rows are equal in every cell.
		rows[i] = []string{k0, topKCells[rng.Intn(len(topKCells))], keep, fmt.Sprint(rng.Intn(n / 2))}
	}
	var keySets [][]OrderKey
	for _, names := range [][]string{{"k0"}, {"ghost"}, {"k0", "k1"}, {"ghost", "k0"}, {"k1", "ghost"}} {
		for dirs := 0; dirs < 1<<len(names); dirs++ {
			keys := make([]OrderKey, len(names))
			for k, name := range names {
				keys[k] = OrderKey{Column: name, Desc: dirs&(1<<k) != 0}
			}
			keySets = append(keySets, keys)
		}
	}
	for _, keys := range keySets {
		for _, batch := range []int{1, 7, 1024} {
			for _, filtered := range []bool{false, true} {
				checkTopKPrefixes(t, cols, rows, keys, batch, filtered)
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

// replaySource serves the same prebuilt batches on every pass, as a
// stored column's scan hands out vectors whose float mirror the store
// parsed once.
type replaySource struct {
	cols    []string
	batches []*Batch
	pos     int
}

func (r *replaySource) Columns() []string { return r.cols }

func (r *replaySource) Next(context.Context) (*Batch, error) {
	if r.pos >= len(r.batches) {
		return nil, io.EOF
	}
	r.pos++
	return r.batches[r.pos-1], nil
}

func (r *replaySource) Close() error { return nil }

// BenchmarkSortTopK prices the top-K stage alone over 300k rows in
// batches of 1024: a numeric DESC key with a text tiebreak in the
// shape of "ORDER BY v DESC, id LIMIT 100" over v = i mod 997, and a
// text ASC key.
func BenchmarkSortTopK(b *testing.B) {
	const n = 300_000
	cols := []string{"id", "site", "v", "w", "note"}
	var batches []*Batch
	for at := 0; at < n; at += DefaultBatchRows {
		batches = append(batches, buildBatch(len(cols), min(DefaultBatchRows, n-at), func(i, j int) string {
			r := at + i
			switch j {
			case 0:
				return fmt.Sprintf("t_%07d", (r*7919)%n)
			case 1:
				return fmt.Sprintf("s%d", r%50)
			case 2:
				return fmt.Sprint((r*31 + 5) % 997)
			case 3:
				return fmt.Sprintf("%d.5", r%113)
			}
			return fmt.Sprintf("n%d", r%1000)
		}))
	}
	for _, tc := range []struct {
		name string
		keys []OrderKey
	}{
		{"numeric_desc", []OrderKey{{Column: "v", Desc: true}, {Column: "id"}}},
		{"text_asc", []OrderKey{{Column: "id"}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				s := sortBatches(&replaySource{cols: cols, batches: batches}, tc.keys, 100, nil, DefaultBatchRows)
				for {
					if _, err := s.Next(ctx); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
				_ = s.Close()
			}
		})
	}
}
