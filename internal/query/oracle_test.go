package query

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golake/internal/storage/docstore"
	"golake/internal/storage/polystore"
)

// The engine is checked against a naive evaluator: materialise every
// FROM item under its store's header rules (and the document store's
// own predicate pushdown), filter, null-pad onto the result header,
// sort, slice. Statements and fixtures are generated from a seed, and
// every statement runs at batch sizes {1, 7, 1024} × fan-in {1, 4, 8}.

// oracleCells are the cell spellings the fixtures draw from: empty
// cells, numbers spelled several ways, NaN and infinity (numeric to
// ParseFloat, not to the sort), and plain strings.
var oracleCells = []string{"", "0", "7", "007", "1.0", "-3", "1e3", "9.5", "NaN", "inf", "abc", "x y", "10", "b"}

// oracleColumns is the column pool of the fixtures and the statements;
// "ghost" exists nowhere.
var oracleColumns = []string{"id", "v", "city", "w", "size", "ghost"}

var oracleSources = []string{"rel:t0", "rel:t1", "rel:t2", "doc:ev", "file:raw/"}

// oracleEngine ingests a seeded mixed-store lake: three relational
// tables with ragged headers, a document collection whose documents
// carry different field sets (and a nested field SELECT * skips), and
// the raw-object listing over all of them.
func oracleEngine(t *testing.T, rng *rand.Rand) *Engine {
	t.Helper()
	p, err := polystore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pick := func() string { return oracleCells[rng.Intn(len(oracleCells))] }
	value := func() any {
		if rng.Intn(2) == 0 {
			return []float64{7, 1000000, -3.5, 0.1, 10, 0}[rng.Intn(6)]
		}
		return pick()
	}
	for k := 0; k < 3; k++ {
		cols := []string{"id"}
		for _, c := range []string{"v", "city", "w", "size"} {
			if rng.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		var sb strings.Builder
		sb.WriteString(strings.Join(cols, ",") + "\n")
		for i, n := 0, 1+rng.Intn(25); i < n; i++ {
			row := make([]string, len(cols))
			for j, c := range cols {
				row[j] = pick()
				if c == "id" {
					// Never an all-empty line, which CSV reads as no row.
					row[j] = fmt.Sprintf("r%d", rng.Intn(12))
				}
			}
			sb.WriteString(strings.Join(row, ",") + "\n")
		}
		if _, err := p.Ingest(fmt.Sprintf("raw/t%d.csv", k), []byte(sb.String())); err != nil {
			t.Fatal(err)
		}
	}
	var docs strings.Builder
	for i, n := 0, 1+rng.Intn(25); i < n; i++ {
		d := map[string]any{}
		for _, c := range []string{"id", "v", "city", "w"} {
			if rng.Intn(3) > 0 {
				d[c] = value()
			}
		}
		if rng.Intn(4) == 0 {
			d["meta"] = map[string]any{"a": 1}
		}
		line, _ := json.Marshal(d)
		docs.Write(append(line, '\n'))
	}
	if _, err := p.Ingest("raw/ev.jsonl", []byte(docs.String())); err != nil {
		t.Fatal(err)
	}
	return NewEngine(p)
}

// oracleStatement generates one valid statement over the fixture: a
// random FROM list, projection, conjunctive WHERE, LIMIT, and — when
// ordered — ORDER BY keys drawn from the result header.
func oracleStatement(e *Engine, rng *rand.Rand, ordered bool) *Query {
	q := &Query{}
	srcs := append([]string(nil), oracleSources...)
	rng.Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
	q.Sources = srcs[:1+rng.Intn(4)]
	if rng.Intn(2) == 0 {
		cols := append([]string(nil), oracleColumns...)
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		q.Columns = cols[:1+rng.Intn(3)]
	}
	ops := []CmpOp{OpEq, OpNe, OpGt, OpGte, OpLt, OpLte}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		p := Predicate{Column: oracleColumns[rng.Intn(len(oracleColumns))], Op: ops[rng.Intn(len(ops))]}
		if rng.Intn(2) == 0 {
			p.Value, p.Numeric = []string{"0", "7", "9.5", "-3", "1e3", "10"}[rng.Intn(6)], true
		} else {
			p.Value = []string{"abc", "b", "x y", "10", "007", ""}[rng.Intn(6)]
		}
		q.Where = append(q.Where, p)
	}
	if rng.Intn(2) == 0 {
		q.Limit = 1 + rng.Intn(15)
	}
	if ordered {
		header, _ := oracle(e, q)
		for i, n := 0, 1+rng.Intn(2); i < n && len(header) > 0; i++ {
			q.Order = append(q.Order, OrderKey{Column: header[rng.Intn(len(header))], Desc: rng.Intn(2) == 0})
		}
	}
	// Round-trip through the dialect, as a client would send it.
	back, err := Parse(q.String())
	if err != nil {
		panic(fmt.Sprintf("generated statement %q does not parse: %v", q.String(), err))
	}
	return back
}

// oracle is the naive evaluator.
func oracle(e *Engine, q *Query) ([]string, [][]string) {
	type source struct {
		cols []string
		rows [][]string
	}
	var srcs []source
	for _, src := range q.Sources {
		kind, name, _ := e.resolveKind(src)
		var s source
		switch kind {
		case "rel":
			tbl, _ := e.Poly.Rel.Table(name)
			s.cols = tbl.ColumnNames()
			for i := 0; i < tbl.NumRows(); i++ {
				s.rows = append(s.rows, tbl.Row(i))
			}
		case "doc":
			var filters []docstore.Filter
			for _, p := range q.Where {
				if f, ok := docFilter(p); ok {
					filters = append(filters, f)
				}
			}
			docs := e.Poly.Docs.Collection(name).Find(filters...)
			s.cols = docFields(docs, withPredicateColumns(q))
			for _, d := range docs {
				s.rows = append(s.rows, oracleRow(s.cols, func(c string) (any, bool) { v, ok := d[c]; return v, ok }))
			}
		case "file":
			s.cols = []string{"path", "size", "format"}
			for _, info := range e.Poly.Files.List(name) {
				s.rows = append(s.rows, []string{info.Path, strconv.FormatInt(info.Size, 10), string(info.Format)})
			}
		}
		srcs = append(srcs, s)
	}
	cols := q.Columns
	if len(cols) == 0 {
		seen := map[string]bool{}
		for _, s := range srcs {
			for _, c := range s.cols {
				if !seen[c] {
					seen[c] = true
					cols = append(cols, c)
				}
			}
		}
	}
	var rows [][]string
	for _, s := range srcs {
		at := map[string]int{}
		for j, c := range s.cols {
			at[c] = j
		}
	next:
		for _, r := range s.rows {
			for _, p := range q.Where {
				if j, ok := at[p.Column]; !ok || !p.Matches(r[j]) {
					continue next
				}
			}
			out := make([]string, len(cols))
			for k, c := range cols {
				if j, ok := at[c]; ok {
					out[k] = r[j]
				}
			}
			rows = append(rows, out)
		}
	}
	if len(q.Order) > 0 {
		at := map[string]int{}
		for j, c := range cols {
			at[c] = j
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for _, k := range q.Order {
				if c := compareCells(rows[a][at[k.Column]], rows[b][at[k.Column]]); c != 0 {
					return (c < 0) != k.Desc
				}
			}
			return strings.Join(rows[a], "\x00") < strings.Join(rows[b], "\x00")
		})
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return cols, rows
}

// oracleRow renders a document or node as cells under cols: a JSON
// value's text, with null and a missing field both read as the empty
// cell.
func oracleRow(cols []string, get func(string) (any, bool)) []string {
	row := make([]string, len(cols))
	for j, c := range cols {
		if v, ok := get(c); ok && v != nil {
			row[j] = fmt.Sprint(v)
		}
	}
	return row
}

// compareCells is the sort's reference order, written out
// independently of the engine's key comparison: numbers (NaN excluded)
// before other cells and compared numerically, text otherwise, text
// settling ties.
func compareCells(a, b string) int {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	aNum, bNum := errA == nil && !math.IsNaN(fa), errB == nil && !math.IsNaN(fb)
	switch {
	case aNum && bNum && fa != fb:
		if fa < fb {
			return -1
		}
		return 1
	case aNum && !bNum:
		return -1
	case bNum && !aNum:
		return 1
	}
	return strings.Compare(a, b)
}

func runOracle(t *testing.T, ordered bool) {
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := oracleEngine(t, rng)
		for n := 0; n < 12; n++ {
			q := oracleStatement(e, rng, ordered)
			wantCols, want := oracle(e, q)
			unlimited := *q
			unlimited.Limit = 0
			_, universe := oracle(e, &unlimited)
			for _, batchRows := range []int{1, 7, 1024} {
				for _, fanIn := range []int{1, 4, 8} {
					name := fmt.Sprintf("seed=%d %q batch=%d fanin=%d", seed, q.String(), batchRows, fanIn)
					st, err := e.Query(ctx, Request{SQL: q.String(), BatchRows: batchRows, FanIn: fanIn})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := st.Columns(); !reflect.DeepEqual(orNil(got), orNil(wantCols)) {
						t.Fatalf("%s: header %v, want %v", name, got, wantCols)
					}
					got := drainStream(t, st)
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					switch {
					case len(q.Order) > 0 || fanIn == 1:
						if !reflect.DeepEqual(orNil2(got), orNil2(want)) {
							t.Errorf("%s:\n got %v\nwant %v", name, got, want)
						}
					case q.Limit > 0:
						if len(got) != len(want) || !subMultiset(got, universe) {
							t.Errorf("%s: %d rows %v, want %d rows out of %v", name, len(got), got, len(want), universe)
						}
					default:
						if !reflect.DeepEqual(orNil2(sortedRows(got)), orNil2(sortedRows(want))) {
							t.Errorf("%s: multiset\n got %v\nwant %v", name, sortedRows(got), sortedRows(want))
						}
					}
				}
			}
		}
	}
}

func orNil(s []string) []string {
	if len(s) == 0 {
		return nil
	}
	return s
}

func orNil2(s [][]string) [][]string {
	if len(s) == 0 {
		return nil
	}
	return s
}

// subMultiset reports whether every row of sub occurs in of, counting
// duplicates.
func subMultiset(sub, of [][]string) bool {
	count := map[string]int{}
	for _, r := range of {
		count[strings.Join(r, "\x00")]++
	}
	for _, r := range sub {
		k := strings.Join(r, "\x00")
		if count[k] == 0 {
			return false
		}
		count[k]--
	}
	return true
}

// TestBatchRowEquivalence checks the engine, at every batch size and
// fan-in width, against the naive row-at-a-time evaluator on generated
// mixed rel/doc/file statements without ORDER BY: exact at
// fan-in 1, the row multiset at wider fan-in, and count plus
// membership when a bare LIMIT makes the surviving rows
// arrival-order-dependent.
func TestBatchRowEquivalence(t *testing.T) { runOracle(t, false) }

// TestBatchRowEquivalenceOrdered is the same sweep with ORDER BY, where
// the total order makes every width exact.
func TestBatchRowEquivalenceOrdered(t *testing.T) { runOracle(t, true) }
