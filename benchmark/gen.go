package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// vMod is the modulus of every generated v column: v cycles through
// 0..996, so "v > K" selects (996-K)/997 of a table whatever its size.
const vMod = 997

// relSpec describes one generated relational dataset with the columns
// id,site,v,w,note. Row i is a pure function of (spec, i), which is what
// lets the benchmark compute the answer to any of its statements from
// arithmetic on the generator, never by asking the engine.
type relSpec struct {
	name     string // table name; its first letters prefix every id
	rows     int
	mul, off int // v_i = (i*mul + off) mod vMod, mul coprime to vMod
}

// relColumns is the header of every relSpec dataset.
var relColumns = []string{"id", "site", "v", "w", "note"}

// newRelSpec derives a table's v sequence from the run's random source.
func newRelSpec(rng *rand.Rand, name string, rows int) relSpec {
	return relSpec{name: name, rows: rows, mul: 1 + rng.Intn(vMod-1), off: rng.Intn(vMod)}
}

func (s relSpec) v(i int) int { return (i*s.mul + s.off) % vMod }

// id is zero-padded so that the engine's lexicographic ORDER BY on ids
// agrees with row order within a table.
func (s relSpec) id(i int) string { return fmt.Sprintf("%s_%07d", s.name, i) }

func (s relSpec) site(i int) string { return "s" + strconv.Itoa(i%50) }

// cell renders one cell of row i; col is a relColumns name.
func (s relSpec) cell(i int, col string) string {
	switch col {
	case "id":
		return s.id(i)
	case "site":
		return s.site(i)
	case "v":
		return strconv.Itoa(s.v(i))
	case "w":
		return strconv.Itoa(i%113) + ".5"
	case "note":
		return "n" + strconv.Itoa(i%1000)
	}
	return ""
}

// row renders row i projected on cols.
func (s relSpec) row(i int, cols []string) []string {
	out := make([]string, len(cols))
	for j, c := range cols {
		out[j] = s.cell(i, c)
	}
	return out
}

// csv renders the dataset as the CSV body an engineer would post.
func (s relSpec) csv() []byte {
	var sb strings.Builder
	sb.Grow(s.rows*40 + 32)
	sb.WriteString(strings.Join(relColumns, ","))
	sb.WriteByte('\n')
	for i := 0; i < s.rows; i++ {
		sb.WriteString(strings.Join(s.row(i, relColumns), ","))
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// path is the ingest path whose basename the lake turns into the table
// name.
func (s relSpec) path() string { return "raw/" + s.name + ".csv" }

// docSpec describes the generated document collection: one JSON object
// per line with id, v and kind, v cycling like a relSpec's.
type docSpec struct {
	name     string
	docs     int
	mul, off int
}

func newDocSpec(rng *rand.Rand, name string, docs int) docSpec {
	return docSpec{name: name, docs: docs, mul: 1 + rng.Intn(vMod-1), off: rng.Intn(vMod)}
}

func (s docSpec) v(i int) int       { return (i*s.mul + s.off) % vMod }
func (s docSpec) id(i int) string   { return fmt.Sprintf("%s_%07d", s.name, i) }
func (s docSpec) path() string      { return "raw/" + s.name + ".jsonl" }
func (s docSpec) kind(i int) string { return "k" + strconv.Itoa(i%7) }

func (s docSpec) jsonl() []byte {
	var sb strings.Builder
	sb.Grow(s.docs * 48)
	for i := 0; i < s.docs; i++ {
		fmt.Fprintf(&sb, "{\"id\":%q,\"v\":%d,\"kind\":%q}\n", s.id(i), s.v(i), s.kind(i))
	}
	return []byte(sb.String())
}

// expectation is what a correct NDJSON answer must look like. Exactly
// one of the three row checks applies:
//
//   - ordered: the statement has a total ORDER BY, so the row sequence
//     is fixed and hashed in order;
//   - member != nil: the statement has LIMIT without ORDER BY, so any
//     rows distinct rows passing member are right;
//   - otherwise: the rows are a fixed multiset in arrival order (fan-in
//     interleaves sources), hashed commutatively.
type expectation struct {
	columns []string
	rows    int
	hash    uint64
	ordered bool
	member  func(row []string) bool
}

// hashSeed keys lineHash for this process. Expected and received hashes
// are both computed here, so the seed need not survive the run.
var hashSeed = maphash.MakeSeed()

// lineHash hashes one NDJSON row line, already trimmed, without its
// blanks, so a change of JSON spacing is not reported as a wrong answer.
// No generated cell contains a blank. It runs inside the clock on every
// row the clients read, hence the runtime's hash and not a bytewise one.
func lineHash(line []byte) uint64 {
	if bytes.IndexByte(line, ' ') >= 0 {
		line = bytes.ReplaceAll(line, []byte{' '}, nil)
	}
	return maphash.Bytes(hashSeed, line)
}

// appendRowLine renders a row the way the NDJSON protocol frames it, a
// JSON array of strings, onto buf. Generated cells need no escaping.
func appendRowLine(buf []byte, cells ...string) []byte {
	buf = append(buf, '[')
	for j, c := range cells {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, c...)
		buf = append(buf, '"')
	}
	return append(buf, ']')
}

// foldOrdered chains one more row hash onto an order-sensitive hash.
func foldOrdered(h, line uint64) uint64 { return h*1099511628211 + line }

// expectSequence builds the fixed-order expectation of a row list.
func expectSequence(columns []string, rows [][]string) expectation {
	e := expectation{columns: columns, rows: len(rows), ordered: true}
	var buf []byte
	for _, r := range rows {
		buf = appendRowLine(buf[:0], r...)
		e.hash = foldOrdered(e.hash, lineHash(buf))
	}
	return e
}

// expectScan is the answer to "SELECT cols FROM tables..., docs WHERE
// v > k": every matching row of every source, in whatever order the
// fan-in delivers them. docs may be nil; when set, cols must be (id, v).
func expectScan(cols []string, k int, tables []relSpec, docs *docSpec) expectation {
	e := expectation{columns: cols}
	var buf []byte
	cells := make([]string, len(cols))
	for _, t := range tables {
		for i := 0; i < t.rows; i++ {
			if t.v(i) <= k {
				continue
			}
			for j, c := range cols {
				cells[j] = t.cell(i, c)
			}
			buf = appendRowLine(buf[:0], cells...)
			e.hash += lineHash(buf)
			e.rows++
		}
	}
	if docs != nil {
		for i := 0; i < docs.docs; i++ {
			if v := docs.v(i); v > k {
				buf = appendRowLine(buf[:0], docs.id(i), strconv.Itoa(v))
				e.hash += lineHash(buf)
				e.rows++
			}
		}
	}
	return e
}

// topRows answers "... WHERE v > k ORDER BY v DESC, id LIMIT n" over the
// tables: v compares numerically, ids lexicographically.
func topRows(cols []string, k, n int, tables ...relSpec) [][]string {
	type key struct {
		v  int
		id string
		t  int
		i  int
	}
	// Only rows at or above the n-th largest v can make the cut; finding
	// that threshold first keeps ids from being rendered for every row.
	var hist [vMod]int
	for _, t := range tables {
		for i := 0; i < t.rows; i++ {
			if v := t.v(i); v > k {
				hist[v]++
			}
		}
	}
	floor, have := vMod-1, 0
	for ; floor > 0 && have+hist[floor] < n; floor-- {
		have += hist[floor]
	}
	var keys []key
	for ti, t := range tables {
		for i := 0; i < t.rows; i++ {
			if v := t.v(i); v > k && v >= floor {
				keys = append(keys, key{v, t.id(i), ti, i})
			}
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].v != keys[b].v {
			return keys[a].v > keys[b].v
		}
		return keys[a].id < keys[b].id
	})
	if len(keys) > n {
		keys = keys[:n]
	}
	out := make([][]string, len(keys))
	for j, kk := range keys {
		out[j] = tables[kk.t].row(kk.i, cols)
	}
	return out
}

// expectLimited is the expectation of a LIMIT n statement without ORDER
// BY: min(n, matching) distinct rows, each of which member accepts.
func expectLimited(columns []string, matching, n int, member func(row []string) bool) expectation {
	if matching < n {
		n = matching
	}
	return expectation{columns: columns, rows: n, member: member}
}

// rowIndex recovers i from an id rendered by relSpec.id, or -1.
func (s relSpec) rowIndex(id string) int {
	rest, ok := strings.CutPrefix(id, s.name+"_")
	if !ok {
		return -1
	}
	i, err := strconv.Atoi(rest)
	if err != nil || i < 0 || i >= s.rows {
		return -1
	}
	return i
}
