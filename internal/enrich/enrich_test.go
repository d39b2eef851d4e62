package enrich

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"golake/internal/table"
)

func mustCSV(t *testing.T, name, csv string) *table.Table {
	t.Helper()
	tbl, err := table.ParseCSV(name, csv)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestDiscoverRFDs(t *testing.T) {
	// city -> country holds except one violating row (Berlin/France).
	tbl := mustCSV(t, "geo", "city,country\nberlin,de\nberlin,de\nberlin,fr\nparis,fr\nparis,fr\nrome,it\n")
	rfds := DiscoverRFDs(tbl, 0.8)
	var dep *RFD
	for i := range rfds {
		if rfds[i].Lhs == "city" && rfds[i].Rhs == "country" {
			dep = &rfds[i]
		}
	}
	if dep == nil {
		t.Fatalf("city~>country not found: %+v", rfds)
	}
	// 5 of 6 rows consistent.
	if dep.Confidence < 0.83 || dep.Confidence > 0.84 {
		t.Errorf("confidence = %v, want ~0.833", dep.Confidence)
	}
}

func TestRFDStrictThresholdExcludesWeakDeps(t *testing.T) {
	tbl := mustCSV(t, "t", "a,b\n1,x\n1,y\n2,x\n2,y\n")
	// a->b holds for only half the rows per group.
	rfds := DiscoverRFDs(tbl, 0.9)
	for _, r := range rfds {
		if r.Lhs == "a" && r.Rhs == "b" {
			t.Errorf("weak dependency reported: %+v", r)
		}
	}
	if got := DiscoverRFDs(table.New("empty"), 0.5); got != nil {
		t.Errorf("empty table RFDs = %v", got)
	}
}

// refDiscoverRFDs is DiscoverRFDs as it was, with a frequency map per
// (group, dependent column), kept verbatim as the oracle.
func refDiscoverRFDs(t *table.Table, minConfidence float64) []RFD {
	var out []RFD
	n := t.NumRows()
	if n == 0 {
		return nil
	}
	for _, lhs := range t.Columns {
		groups := map[string][]int{}
		for i, v := range lhs.Cells {
			groups[v] = append(groups[v], i)
		}
		multi := false
		for _, rows := range groups {
			if len(rows) > 1 {
				multi = true
				break
			}
		}
		if !multi {
			continue
		}
		for _, rhs := range t.Columns {
			if rhs.Name == lhs.Name {
				continue
			}
			consistent := 0
			for _, rows := range groups {
				freq := map[string]int{}
				for _, ri := range rows {
					freq[rhs.Cells[ri]]++
				}
				best := 0
				for _, c := range freq {
					if c > best {
						best = c
					}
				}
				consistent += best
			}
			conf := float64(consistent) / float64(n)
			if conf >= minConfidence {
				out = append(out, RFD{Table: t.Name, Lhs: lhs.Name, Rhs: rhs.Name, Confidence: conf})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Lhs+out[i].Rhs < out[j].Lhs+out[j].Rhs
	})
	return out
}

// tieTable generates a table whose column names split alike ("ab" + "c"
// and "a" + "bc" both read "abc"), some of them repeated, over a small
// vocabulary, so many RFDs share a confidence and an Lhs+Rhs while
// differing; wide ones find more than the 12 RFDs sort.Slice
// insertion-sorts, so its unstable partitioning decides their order.
func tieTable(rng *rand.Rand, i int) *table.Table {
	names := []string{"a", "ab", "b", "bc", "c", "abc", "", "x"}
	cols := 2 + rng.Intn(7)
	rows := 1 + rng.Intn(30)
	header := make([]string, cols)
	for c := range header {
		header[c] = names[rng.Intn(len(names))]
	}
	vocab := 1 + rng.Intn(4)
	data := make([][]string, rows)
	for r := range data {
		data[r] = make([]string, cols)
		base := rng.Intn(vocab)
		for c := range data[r] {
			v := base
			if rng.Intn(12) == 0 {
				v = rng.Intn(vocab + 1) // a violation now and then
			}
			data[r][c] = strconv.Itoa(v)
		}
	}
	tb, err := table.FromRows(fmt.Sprintf("t%d", i), header, data)
	if err != nil {
		panic(err)
	}
	return tb
}

// One discovery at the lower confidence gives both lists exactly as
// two discoveries of the oracle do, order of ties included, and with
// one frequency map per call.
func TestDiscoverRFDsAtMatchesTwoDiscoveries(t *testing.T) {
	const seed = 20261020
	rng := rand.New(rand.NewSource(seed))
	ties := 0
	for i := 0; i < 400; i++ {
		tb := tieTable(rng, i)
		hi, lo := DiscoverRFDsAt(tb, 0.95, 0.9)
		wantHi, wantLo := refDiscoverRFDs(tb, 0.95), refDiscoverRFDs(tb, 0.9)
		if !reflect.DeepEqual(hi, wantHi) || !reflect.DeepEqual(lo, wantLo) {
			t.Fatalf("seed %d table %d (%v): DiscoverRFDsAt = %v, %v; two discoveries %v, %v", seed, i, tb.ColumnNames(), hi, lo, wantHi, wantLo)
		}
		if got := DiscoverRFDs(tb, 0.9); !reflect.DeepEqual(got, wantLo) {
			t.Fatalf("seed %d table %d: DiscoverRFDs = %v, oracle %v", seed, i, got, wantLo)
		}
		if len(lo) > 12 {
			for a := range lo {
				for b := a + 1; b < len(lo); b++ {
					x, y := lo[a], lo[b]
					if x.Confidence == y.Confidence && x.Lhs+x.Rhs == y.Lhs+y.Rhs && x.Lhs != y.Lhs {
						ties++
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatalf("seed %d: no list over 12 RFDs holds a tie on Lhs+Rhs", seed)
	}
	if hi, lo := DiscoverRFDsAt(table.New("empty"), 0.95, 0.9); hi != nil || lo != nil {
		t.Errorf("empty table: %v, %v", hi, lo)
	}
}
