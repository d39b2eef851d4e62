package query

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"golake/internal/ndjson"
	"golake/internal/storage/docstore"
	"golake/internal/storage/polystore"
	"golake/internal/table"
)

// mirrorCells are the spellings the stored columns' float mirrors are
// checked on: short and long integers, both zeros, NaN, infinities,
// padded numbers and text.
var mirrorCells = []string{"", "0", "-0", "+7", "007", "-3", "123456789012345", "1234567890123456", "9.5", "1e3",
	".5", "NaN", "-inf", "Infinity", "infinite", " 5", "0x10", "1_000", "abc", "+", "1a"}

// TestStoreMirrorMatchesVectorParse checks vectors over a stored table
// against NewVector over the same cells: the same validity bits, and
// the same float bits where valid. Batch sizes 1, 7 and 1024 over
// 2 500 rows start batches off 64-bit word boundaries of the store's
// validity bits.
func TestStoreMirrorMatchesVectorParse(t *testing.T) {
	p, err := polystore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const rows = 2500
	tbl := table.New("m")
	tbl.Columns = []*table.Column{{Name: "id"}, {Name: "v"}, {Name: "w"}}
	for i := 0; i < rows; i++ {
		_ = tbl.AppendRow([]string{strconv.Itoa(i), mirrorCells[i%len(mirrorCells)], mirrorCells[(i*7+3)%len(mirrorCells)]})
	}
	p.Rel.Create(tbl)
	e := NewEngine(p)
	q, err := Parse("SELECT * FROM rel:m")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, batchRows := range []int{1, 7, 1024} {
		leaf, err := e.scanRelational("m", q, batchRows)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for {
			b, err := leaf.Next(ctx)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range b.vecs {
				if v.mirror == nil {
					t.Fatalf("batch=%d: column %d has no stored mirror", batchRows, j)
				}
				got, gotOK := v.Floats()
				want, wantOK := NewVector(v.cells).Floats()
				for i := 0; i < v.Len(); i++ {
					if gotOK.Get(i) != wantOK.Get(i) || gotOK.Get(i) && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("batch=%d: cell %q at row %d: mirror (%v, %v), parse (%v, %v)",
							batchRows, v.Cell(i), v.off+i, gotOK.Get(i), got, wantOK.Get(i), want)
					}
				}
			}
			seen += b.Len()
		}
		if err := leaf.Close(); err != nil {
			t.Fatal(err)
		}
		if seen != rows {
			t.Fatalf("batch=%d: %d rows, want %d", batchRows, seen, rows)
		}
	}
}

// queryRows runs a statement at fan-in 1 and returns its rows joined
// by "|"; it reports failures as errors so goroutines can call it.
func queryRows(e *Engine, req Request) ([]string, error) {
	ctx := context.Background()
	st, err := e.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var out []string
	for {
		row, err := st.Next(ctx)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, strings.Join(row, "|"))
	}
}

// TestMirrorConcurrentScans starts many scans of one never-read column
// at once, at several fan-in widths, while another table is
// dropped and re-created under scans of it and documents are inserted
// into a collection being read. Every scan of the never-read column
// must answer the same rows; a scan of the replaced table must see one
// whole version of it or none; a document read must see its documents
// in _id order. Under -race this also checks the mirror is built once,
// without a race.
func TestMirrorConcurrentScans(t *testing.T) {
	p, err := polystore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	csv.WriteString("id,v\n")
	var want []string
	for i := 0; i < 5000; i++ {
		v := i * 7919 % 1000
		fmt.Fprintf(&csv, "r%d,%d\n", i, v)
		if v > 500 {
			want = append(want, fmt.Sprintf("r%d|%d", i, v))
		}
	}
	sort.Strings(want)
	if _, err := p.Ingest("raw/big.csv", []byte(csv.String())); err != nil {
		t.Fatal(err)
	}
	versions := make([]*table.Table, 2)
	answers := make([]string, 2)
	for k := range versions {
		var sb strings.Builder
		sb.WriteString("id,v\n")
		var ans []string
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&sb, "%c%d,%d\n", 'a'+k, i, 10*k+i)
			if 10*k+i > 5 {
				ans = append(ans, fmt.Sprintf("%c%d|%d", 'a'+k, i, 10*k+i))
			}
		}
		if versions[k], err = table.ParseCSV("flip", sb.String()); err != nil {
			t.Fatal(err)
		}
		answers[k] = strings.Join(ans, "\n")
	}
	p.Rel.Create(versions[0])
	coll := docstore.NewCollection("ev")
	p.Docs.Add(coll)
	for i := 0; i < 200; i++ {
		coll.Insert(docstore.Doc{"_id": fmt.Sprintf("d%06d", i), "id": fmt.Sprintf("d%06d", i), "v": float64(i % 1000)})
	}
	e := NewEngine(p)

	start, stop := make(chan struct{}), make(chan struct{})
	var scans, others sync.WaitGroup
	const scanners = 8
	results := make([]string, scanners)
	for g := 0; g < scanners; g++ {
		scans.Add(1)
		go func(g int) {
			defer scans.Done()
			<-start
			rows, err := queryRows(e, Request{SQL: "SELECT id, v FROM rel:big WHERE v > 500", FanIn: 1 + g%3})
			if err != nil {
				t.Error(err)
				return
			}
			sort.Strings(rows)
			results[g] = strings.Join(rows, "\n")
		}(g)
	}
	others.Add(4)
	go func() { // replace and drop the table the next goroutine scans
		defer others.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.Rel.Create(versions[i%2])
			if i%3 == 0 {
				_ = p.Rel.Drop("flip")
			}
		}
	}()
	go func() {
		defer others.Done()
		for i := 0; i < 200; i++ {
			rows, err := queryRows(e, Request{SQL: "SELECT id, v FROM rel:flip WHERE v > 5", FanIn: 1, BatchRows: 3})
			if errors.Is(err, polystore.ErrNoTable) {
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			if got := strings.Join(rows, "\n"); got != answers[0] && got != answers[1] {
				t.Errorf("scan of a replaced table read %q, want one whole version", got)
				return
			}
		}
	}()
	go func() { // insert into the collection the next goroutine reads
		defer others.Done()
		for i := 200; i < 5000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			coll.Insert(docstore.Doc{"_id": fmt.Sprintf("d%06d", i), "id": fmt.Sprintf("d%06d", i), "v": float64(i % 1000)})
		}
	}()
	go func() {
		defer others.Done()
		last := 0
		for i := 0; i < 50; i++ {
			rows, err := queryRows(e, Request{SQL: "SELECT id, v FROM doc:ev WHERE v >= 0", FanIn: 1})
			if err != nil {
				t.Error(err)
				return
			}
			if len(rows) < last || !sort.StringsAreSorted(rows) {
				t.Errorf("document read %d: %d rows after %d, sorted %v", i, len(rows), last, sort.StringsAreSorted(rows))
				return
			}
			last = len(rows)
		}
	}()
	close(start)
	scans.Wait()
	close(stop)
	others.Wait()
	for g, got := range results {
		if got != strings.Join(want, "\n") {
			t.Errorf("scanner %d: %d bytes, want the %d-row answer", g, len(got), len(want))
		}
	}
}

// TestRelScanAllocationCeiling holds "SELECT id, v FROM rel:big WHERE
// v > 500" over 20k rows, drained through NextBatch at fan-in 1, to its
// per-batch cost: 207 allocations for 10k rows. The filter reads v's
// float mirror in the store, so no batch allocates a float slice or a
// validity bitmap; when each batch parsed its own, the statement took
// 267.
func TestRelScanAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p, err := polystore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	csv.WriteString("id,v,site\n")
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&csv, "r%d,%d,s%d\n", i, i*7919%1000, i%50)
	}
	if _, err := p.Ingest("raw/big.csv", []byte(csv.String())); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	ctx := context.Background()
	rows := 0
	n := testing.AllocsPerRun(5, func() {
		st, err := e.Query(ctx, Request{SQL: "SELECT id, v FROM rel:big WHERE v > 500", FanIn: 1})
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
	if rows < 9900 {
		t.Fatalf("statement returned %d rows, want the fixture's ~10k", rows)
	}
	if n > 220 {
		t.Errorf("rel scan: %v allocations for %d rows, want <= 220", n, rows)
	}
}

// rowLines runs a statement and returns every row line
// Batch.AppendRowJSON writes for it, and for each output column the
// first byte of the stored encoding its vectors copied from (nil for a
// column read without one); it reports failures as errors so
// goroutines can call it.
func rowLines(e *Engine, req Request) ([]string, []*byte, error) {
	ctx := context.Background()
	st, err := e.Query(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	var lines []string
	arenas := make([]*byte, len(st.Columns()))
	for {
		b, err := st.NextBatch(ctx)
		if errors.Is(err, io.EOF) {
			return lines, arenas, nil
		}
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < b.Len(); i++ {
			lines = append(lines, string(b.AppendRowJSON(nil, i)))
		}
		for j, v := range b.vecs {
			if len(v.arena) == 0 {
				continue
			}
			if arenas[j] == nil {
				arenas[j] = &v.arena[0]
			} else if arenas[j] != &v.arena[0] {
				return nil, nil, fmt.Errorf("column %d: batches copied from two encodings", j)
			}
		}
	}
}

// TestMirrorConcurrentNDJSONReads has many statements write the first
// row lines of a never-read column at once, at several fan-in widths
// and batch sizes, while another table is dropped and re-created under
// reads of its row lines. Every reader of the never-read column must
// write the same lines, copied from one encoding of each column; a
// reader of the replaced table must write one whole version of it or
// none. Under -race this also checks the encoding is built once,
// without a race.
func TestMirrorConcurrentNDJSONReads(t *testing.T) {
	p, err := polystore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	big := table.New("big")
	big.Columns = []*table.Column{{Name: "id"}, {Name: "v"}}
	var want []string
	for i := 0; i < 5000; i++ {
		row := []string{fmt.Sprintf("r%d<%c>", i, 'a'+i%26), mirrorCells[i%len(mirrorCells)] + "\"\\ \x01"}
		_ = big.AppendRow(row)
		want = append(want, string(ndjson.AppendRow(nil, row)))
	}
	sort.Strings(want)
	p.Rel.Create(big)
	versions := make([]*table.Table, 2)
	answers := make([]string, 2)
	for k := range versions {
		versions[k] = table.New("flip")
		versions[k].Columns = []*table.Column{{Name: "id"}, {Name: "v"}}
		var lines []string
		for i := 0; i < 10; i++ {
			row := []string{fmt.Sprintf("%c%d&", 'a'+k, i), strconv.Itoa(10*k + i)}
			_ = versions[k].AppendRow(row)
			lines = append(lines, string(ndjson.AppendRow(nil, row)))
		}
		answers[k] = strings.Join(lines, "")
	}
	p.Rel.Create(versions[0])
	e := NewEngine(p)

	start, stop := make(chan struct{}), make(chan struct{})
	var readers, flipper sync.WaitGroup
	const n = 8
	results := make([]string, n)
	arenas := make([][]*byte, n)
	for g := 0; g < n; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			<-start
			lines, a, err := rowLines(e, Request{SQL: "SELECT id, v FROM rel:big", FanIn: 1 + g%3, BatchRows: []int{1, 7, 1024}[g%3]})
			if err != nil {
				t.Error(err)
				return
			}
			sort.Strings(lines)
			results[g], arenas[g] = strings.Join(lines, ""), a
		}(g)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		<-start
		for i := 0; i < 200; i++ {
			lines, _, err := rowLines(e, Request{SQL: "SELECT id, v FROM rel:flip", FanIn: 1, BatchRows: 3})
			if errors.Is(err, polystore.ErrNoTable) {
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			if got := strings.Join(lines, ""); got != answers[0] && got != answers[1] {
				t.Errorf("row lines of a replaced table read %q, want one whole version", got)
				return
			}
		}
	}()
	flipper.Add(1)
	go func() { // replace and drop the table the last reader reads
		defer flipper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.Rel.Create(versions[i%2])
			if i%3 == 0 {
				_ = p.Rel.Drop("flip")
			}
		}
	}()
	close(start)
	readers.Wait()
	close(stop)
	flipper.Wait()
	for g := range results {
		if results[g] != strings.Join(want, "") {
			t.Errorf("reader %d: %d bytes of row lines, want the %d-row answer", g, len(results[g]), len(want))
		}
		for j, a := range arenas[g] {
			if a == nil || a != arenas[0][j] {
				t.Errorf("reader %d column %d: copied from encoding %p, reader 0 from %p", g, j, a, arenas[0][j])
			}
		}
	}
}

// FuzzStoredRowLine stores fuzzed cells in a relational table, scans
// them through the engine in batches of 2 — with and without a
// selection, under the stored and a reordered column order — and
// requires every row line Batch.AppendRowJSON copies from the store's
// encoding to equal ndjson.AppendRow of the row and encoding/json's
// encoding of the stored cells.
func FuzzStoredRowLine(f *testing.F) {
	for _, c := range mirrorCells {
		f.Add(c, `<a href="x">&amp;\</a>`)
	}
	f.Add("\x00\x1f\x7f\b\f\n\r\t", "  ")
	f.Add("\xff", "a\xc3")
	f.Add("\xed\xa0\x80", "é😀")
	p, err := polystore.New(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	e := NewEngine(p)
	f.Fuzz(func(t *testing.T, a, b string) {
		rows := [][]string{{"0", a, b}, {"1", b, a}, {"2", a + b, ""}, {"3", "", b + a}, {"4", a, a}}
		tbl := table.New("fz")
		tbl.Columns = []*table.Column{{Name: "id"}, {Name: "a"}, {Name: "b"}}
		for _, row := range rows {
			_ = tbl.AppendRow(row)
		}
		p.Rel.Create(tbl)
		ctx := context.Background()
		for _, q := range []struct {
			sql  string
			cols []int
			from int
		}{
			{"SELECT * FROM rel:fz", []int{0, 1, 2}, 0},
			{"SELECT b, id, a FROM rel:fz WHERE id > 0", []int{2, 0, 1}, 1},
		} {
			st, err := e.Query(ctx, Request{SQL: q.sql, FanIn: 1, BatchRows: 2})
			if err != nil {
				t.Fatal(err)
			}
			k := q.from
			for {
				batch, err := st.NextBatch(ctx)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range batch.vecs {
					if v.mirror == nil {
						t.Fatalf("%s: column %d is not read from the store", q.sql, j)
					}
				}
				for i := 0; i < batch.Len(); i++ {
					row := make([]string, len(q.cols))
					for j, c := range q.cols {
						row[j] = rows[k][c]
					}
					k++
					enc, _ := json.Marshal(row)
					got := batch.AppendRowJSON(nil, i)
					if want := ndjson.AppendRow(nil, row); !bytes.Equal(got, want) {
						t.Fatalf("%s row %d: %s, ndjson.AppendRow %s", q.sql, k-1, got, want)
					}
					if !bytes.Equal(got, append(enc, '\n')) {
						t.Fatalf("%s row %d: %s, encoding/json %s", q.sql, k-1, got, enc)
					}
				}
			}
			_ = st.Close()
			if k != len(rows) {
				t.Fatalf("%s: %d rows, want %d", q.sql, k-q.from, len(rows)-q.from)
			}
		}
	})
}
