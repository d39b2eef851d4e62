package table

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// inferSeeds are columns, cells joined by NUL, that sit on the edges of
// InferKind's shortcuts: what the numeric and time parsers take that a
// shape check could refuse, null tokens with padding, and columns at the
// tolerance and one cell under it.
func inferSeeds() []string {
	col := func(cells ...string) string { return strings.Join(cells, "\x00") }
	rep := func(n int, cell string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = cell
		}
		return out
	}
	return []string{
		col("1", "+2", "-3", " 4 ", "0007"),
		col("+", "-", "+-1", "1-", "--1"),
		col("1e5", ".5", "5.", "-.5e-3", "1E+9", "0x1p-2", "0X1.8P+3", "1_000", "0x_1p0", "1e", "e5", ".", "1e999", "99999999999999999999"),
		col("123456789012345678", "-12345678901234567", "+12345678901234567", "1234567890123456789", "9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809"),
		col("0.5", "+.5", "-5.", ".", "+.", "-", "1.2.3", "1..2", "..5", "0.000", strings.Repeat("9", 298)+".5", strings.Repeat("9", 299)+".5", strings.Repeat("9", 400), "0."+strings.Repeat("0", 400)+"1"),
		col("inf", "+Inf", "-INF", "Infinity", "-infinity", "+INFINITY", "NaN", "nan", "+nan", "infinit", "nana", "in", "n12"),
		col("true", "FALSE", "yes", "No", "T", "f", "y", "tRuE", "falſe", "true "),
		col("2024-01-02T15:04:05Z", "2024-01-02T15:04:05.123+02:00", "2024-01-02t15:04:05Z", "2024-01-02 15:04:05", "2024-01-02  15:04:05", "2024-01-02 15:04:05.5"),
		col("2024-01-02", "01/02/2006", "2006/01/02", "2024-1-2", "1/2/2006", "2024-13-45", "2024-01-02x", "20240102-1"),
		col("Mon, 02 Jan 2006 15:04:05 MST", "mon, 02 jan 2006 15:04:05 UTC", "Monday, 02 Jan 2006 15:04:05 MST", "Tue, 2 Jan 2006 15:04:05 GMT", "Sacramento", "Wed,nesday ok"),
		col("", " ", "null", " NULL ", "na", "NA\t", "n/a", "N/A", "nil", "NIL", "Null", "-", " - ", "--", " ", "nulls"),
		col(append(rep(19, "7"), "x")...),                       // int at exactly 95%
		col(append(rep(18, "7"), "x", "y")...),                  // one cell under
		col(append(rep(19, "7"), "x", "", "null", "-", " ")...), // nulls do not count
		col(append(rep(19, "1.5"), "x")...),
		col(append(rep(19, "2024-01-02"), "x")...),
		col(append(rep(38, "yes"), "x", "y", "z")...),
		col(append([]string{"a", "b", "c", "d", "e"}, rep(95, "1")...)...), // misses first, still int
		col(append([]string{"a", "b", "c", "d", "e", "f"}, rep(94, "1")...)...),
		col(append(rep(6, "a"), append(rep(94, "1"), rep(20, "")...)...)...),
	}
}

// FuzzInferKind holds InferKind to the every-parser-on-every-cell
// reference, on the column the input spells (cells split on NUL) and on
// each of its cells alone, where one misjudged cell decides the kind.
func FuzzInferKind(f *testing.F) {
	for _, s := range inferSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		cells := strings.Split(in, "\x00")
		if got, want := InferKind(cells), refInferKind(cells); got != want {
			t.Fatalf("InferKind(%q) = %v, reference %v", cells, got, want)
		}
		for _, c := range cells {
			one := []string{c}
			if got, want := InferKind(one), refInferKind(one); got != want {
				t.Fatalf("InferKind(%q) = %v, reference %v", one, got, want)
			}
		}
	})
}

// FuzzParseNumber holds ParseNumber — the shape test and the
// short-integer path every float mirror takes — to strconv.ParseFloat,
// bit for bit, the sign of zero included.
func FuzzParseNumber(f *testing.F) {
	for _, s := range inferSeeds() {
		for _, c := range strings.Split(s, "\x00") {
			f.Add(c)
		}
	}
	for _, s := range []string{"-0", "+0", "123456789012345", "-12345678901234", "1234567890123456", "9007199254740993"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := ParseNumber(s)
		want, err := strconv.ParseFloat(s, 64)
		switch {
		case ok != (err == nil):
			t.Fatalf("ParseNumber(%q) ok=%v, ParseFloat err=%v", s, ok, err)
		case ok && math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("ParseNumber(%q) = %v, ParseFloat %v", s, got, want)
		}
	})
}

// genCell draws a cell of the given flavour; the flavours cover every
// kind, the null tokens, and near misses of each.
func genCell(rng *rand.Rand, flavour int) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	switch flavour {
	case 0:
		return strconv.Itoa(rng.Intn(2000) - 1000)
	case 1:
		return strconv.FormatFloat(rng.NormFloat64()*100, 'g', -1, 64)
	case 2:
		return pick("true", "false", "YES", "no", "T", "f")
	case 3:
		return pick("2024-01-02", "2024-01-02 10:00:00", "2024-01-02T10:00:00Z", "03/04/2021", "2021/03/04", "Mon, 02 Jan 2006 15:04:05 UTC")
	case 4:
		return pick("", " ", "null", "NULL", " na", "NA ", "n/a", "N/A", "nil", "-")
	case 5:
		return pick("alice", "bob", "s"+strconv.Itoa(rng.Intn(50)), "n"+strconv.Itoa(rng.Intn(1000)), "New York", "Sacramento", "inform", "nancy")
	default:
		return pick("1.2.3", "12 Main St", "2024-01-32", "1e", "0x", "Infinit", "tru", "Null", "10:30", "+", "٣")
	}
}

// genColumn draws n cells, mostly of one flavour with a share of others:
// around the tolerance when the share is near 5%.
func genColumn(rng *rand.Rand, n int) []string {
	main, share := rng.Intn(6), rng.Float64()*0.12
	cells := make([]string, n)
	for i := range cells {
		fl := main
		if rng.Float64() < share {
			fl = rng.Intn(7)
		}
		cells[i] = genCell(rng, fl)
	}
	return cells
}

func TestInferKindMatchesReferenceOnGeneratedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 3000; i++ {
		cells := genColumn(rng, rng.Intn(130))
		if got, want := InferKind(cells), refInferKind(cells); got != want {
			t.Fatalf("column %d: InferKind = %v, reference %v\ncells %q", i, got, want, cells)
		}
	}
}

// The early exit is an accounting of cells, so count them: a failed
// ParseFloat allocates its error, and a column of float-shaped
// non-floats must pay for exactly the 5% of misses that still leave the
// kind in the running plus the one that rules it out — one fewer would
// be an exit a cell early, more a late one.
func TestInferKindEarlyExitFiresOnTheThreshold(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	perMiss := testing.AllocsPerRun(100, func() { _, _ = strconv.ParseFloat("1.2.3", 64) })
	if perMiss < 1 {
		t.Fatalf("a failed ParseFloat allocates %v: the probe counts nothing", perMiss)
	}
	for _, n := range []int{19, 20, 100, 1000, 1019} {
		cells := make([]string, n)
		for i := range cells {
			cells[i] = "1.2.3"
		}
		got := testing.AllocsPerRun(20, func() {
			if k := InferKind(cells); k != KindString {
				t.Fatalf("kind = %v", k)
			}
		})
		if want := perMiss * float64(n/20+1); got != want {
			t.Errorf("%d cells: %v allocations, want %v (%d failed parses)", n, got, want, n/20+1)
		}
	}
}

func benchShapedColumns(rows int) map[string][]string {
	cols := map[string][]string{}
	for i := 0; i < rows; i++ {
		cols["string"] = append(cols["string"], fmt.Sprintf("ingest_%07d", i))
		cols["word"] = append(cols["word"], "n"+strconv.Itoa(i))
		cols["int"] = append(cols["int"], strconv.Itoa(i*7919%9973))
		cols["float"] = append(cols["float"], strconv.Itoa(i%113)+".5")
		cols["date"] = append(cols["date"], fmt.Sprintf("2024-%02d-%02d", 1+i%12, 1+i%28))
		cols["datetime"] = append(cols["datetime"], fmt.Sprintf("2024-%02d-%02d 10:%02d:00", 1+i%12, 1+i%28, i%60))
		cols["bool"] = append(cols["bool"], []string{"True", "false", "YES"}[i%3])
	}
	return cols
}

func TestInferKindDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	want := map[string]Kind{"string": KindString, "word": KindString, "int": KindInt, "float": KindFloat,
		"date": KindTime, "datetime": KindTime, "bool": KindBool}
	for name, cells := range benchShapedColumns(1000) {
		var kind Kind
		if n := testing.AllocsPerRun(10, func() { kind = InferKind(cells) }); n != 0 {
			t.Errorf("%s column: %v allocations per InferKind, want 0", name, n)
		}
		if kind != want[name] {
			t.Errorf("%s column: kind %v, want %v", name, kind, want[name])
		}
	}
}

// benchShapedCSV is the body the benchmark's ingest workload posts:
// rows x (id, site, v, w, note).
func benchShapedCSV(rows int) string {
	var sb strings.Builder
	sb.WriteString("id,site,v,w,note\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "ingest_%07d,s%d,%d,%d.5,n%d\n", i, i%50, i*7919%9973, i%113, i%1000)
	}
	return sb.String()
}

func TestParseCSVAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// About 20: the table, its columns, a cell slice per column sized
	// once, and the reused record. Cells are cut from the body, so the
	// count is the same at any row count: a string per record coming
	// back, an intermediate [][]string or a parser that allocates per
	// rejected cell fails here.
	var counts [2]float64
	for k, rows := range []int{1000, 10000} {
		body := benchShapedCSV(rows)
		counts[k] = testing.AllocsPerRun(10, func() {
			if _, err := ParseCSV("t", body); err != nil {
				t.Fatal(err)
			}
		})
		if counts[k] > 40 {
			t.Errorf("ParseCSV of %dx5: %v allocations, want <= 40", rows, counts[k])
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("ParseCSV allocations grow with rows: %v at 1000, %v at 10000", counts[0], counts[1])
	}
}

func TestReadCSVSizesColumnsOnce(t *testing.T) {
	for name, body := range map[string]string{
		"trailing newline":    "a,b\n1,2\n3,4\n",
		"no trailing newline": "a,b\n1,2\n3,4",
		"blank lines":         "a,b\n\n1,2\n\n\n3,4\n\n",
		"quoted newline":      "a,b\n\"1\n1\",2\n3,4\n",
		"crlf":                "a,b\r\n1,2\r\n3,4\r\n",
		"header only":         "a,b",
	} {
		tbl, err := ParseCSV("t", body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantRows := 2
		if name == "header only" {
			wantRows = 0
		}
		if tbl.NumRows() != wantRows || tbl.NumCols() != 2 {
			t.Errorf("%s: shape %v", name, tbl)
		}
	}
	// Newlines are only a claim about rows: many blank lines under a
	// wide header must not size columns by their product.
	wide := strings.Repeat("c,", 4999) + "c\n" + strings.Repeat("\n", 1<<20)
	tbl, err := ParseCSV("wide", wide)
	if err != nil || tbl.NumCols() != 5000 || tbl.NumRows() != 0 {
		t.Fatalf("wide: %v, %v", tbl, err)
	}
	if c := cap(tbl.Columns[0].Cells); c > len(wide)/5000 {
		t.Errorf("wide: column capacity %d for a %d-byte body of 5000 columns", c, len(wide))
	}
}

func TestReadCSVStripsByteOrderMark(t *testing.T) {
	const body = "id,city\n1,berlin\n2,paris\n"
	for name, in := range map[string]string{"plain": body, "bom": "\ufeff" + body} {
		tbl, err := ParseCSV("t", in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := tbl.ColumnNames(); got[0] != "id" || got[1] != "city" {
			t.Errorf("%s: columns %q", name, got)
		}
		if c, err := tbl.Column("id"); err != nil || c.Kind != KindInt {
			t.Errorf("%s: column id = %v, %v", name, c, err)
		}
	}
	// Only one mark, and only at the very start, is a mark.
	tbl, err := ParseCSV("t", "\ufeff\ufeffid\n1\n")
	if err != nil || tbl.ColumnNames()[0] != "\ufeffid" {
		t.Errorf("second mark: %v, %v", tbl, err)
	}
}

// refFirstSeen lists refDistinct's values in the order the cells first
// hold them.
func refFirstSeen(c *Column) []string {
	set := refDistinct(c)
	var out []string
	for _, v := range c.Cells {
		if _, ok := set[v]; ok {
			out = append(out, v)
			delete(set, v)
		}
	}
	return out
}

// TestMeanLenMatchesReferenceOnGeneratedColumns holds Profile, one walk
// over a column, to the one-walk-per-field references: the distinct
// values in first-seen order, the non-null count, the mean length, and
// the candidate-key rule at Juneau's 0.9 coverage against the rule as
// it stood on the reference's map.
func TestMeanLenMatchesReferenceOnGeneratedColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	keys, checked := 0, 0
	check := func(c *Column) {
		t.Helper()
		p := c.Profile()
		if got, want := p.MeanLen, refMeanLen(c); got != want {
			t.Fatalf("MeanLen = %v, reference %v, cells %q", got, want, c.Cells)
		}
		nonNull := c.Len() - refNullCount(c)
		if p.NonNull != nonNull {
			t.Fatalf("NonNull = %d, reference %d, cells %q", p.NonNull, nonNull, c.Cells)
		}
		if want := refFirstSeen(c); !slices.Equal(p.Distinct, want) {
			t.Fatalf("Distinct = %q, reference %q, cells %q", p.Distinct, want, c.Cells)
		}
		wantKey := nonNull > 0 && len(refDistinct(c)) == nonNull && float64(nonNull)/float64(c.Len()) >= 0.9
		if got := p.IsKey(c.Len(), 0.9); got != wantKey {
			t.Fatalf("IsKey = %v, reference %v, cells %q", got, wantKey, c.Cells)
		}
		if wantKey {
			keys++
		}
		checked++
	}
	for i := 0; i < 2000; i++ {
		c := &Column{Name: "c", Cells: genColumn(rng, rng.Intn(130))}
		if rng.Intn(3) == 0 { // key-like: distinct values, perhaps a few nulls
			for j := range c.Cells {
				c.Cells[j] = strconv.Itoa(j)
				if rng.Intn(12) == 0 {
					c.Cells[j] = genCell(rng, 4)
				}
			}
		}
		c.Kind = InferKind(c.Cells)
		check(c)
	}
	for _, s := range inferSeeds() {
		c := &Column{Name: "seed", Cells: strings.Split(s, "\x00")}
		c.Kind = InferKind(c.Cells)
		check(c)
	}
	check(&Column{Name: "empty"})
	if keys == 0 || keys == checked {
		t.Fatalf("%d of %d columns are keys: the rule is checked on one side only", keys, checked)
	}
}
