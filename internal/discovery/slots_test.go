package discovery

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"golake/internal/metamodel"
	"golake/internal/table"
	"golake/internal/workload"
)

// slotCorpus is the pool the slot tests index from: two join groups of
// generated tables, plus two tables whose column names hold dots and
// whose key values are group 0's.
func slotCorpus(t *testing.T) *workload.Corpus {
	t.Helper()
	c := workload.GenerateCorpus(workload.CorpusSpec{
		NumTables: 10, JoinGroups: 2, RowsPerTable: 40,
		ExtraCols: 1, KeyVocab: 90, KeySample: 40, Seed: 47,
	})
	key, err := c.Tables[0].Column(c.KeyColumn[c.Tables[0].Name])
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"dotted", "dotted.copy"} {
		csv := "ref.id,price.usd\n"
		for r, v := range key.Cells[i*5:] {
			csv += fmt.Sprintf("%s,%d.%02d\n", v, 10+r, r)
		}
		tb, err := table.ParseCSV(name, csv)
		if err != nil {
			t.Fatal(err)
		}
		c.Tables = append(c.Tables, tb)
		c.KeyColumn[name] = "ref.id"
	}
	return c
}

// sameScores reports whether two rankings agree bit for bit.
func sameScores(a, b []metamodel.TableScore) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Table != b[i].Table || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func sameMatches(a, b []ColumnMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Ref != b[i].Ref || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// slotIndex is what the slot-reuse test drives: D3L or JOSIE.
type slotIndex interface {
	Discoverer
	JoinSearcher
	Remove(tableName string)
}

// Seeded interleavings of indexing, incremental adds and removes —
// re-adding removed tables, so freed slots and table ids are reused —
// must leave D3L and JOSIE answering bit for bit like a fresh index of
// the surviving tables: every table of the pool as the query, indexed
// or not, for RelatedTables and JoinableColumns on every column. D3L's
// corpus-trained embedding depends on what was ever indexed (see
// TestD3LIncrementalDriftBounded), so its weight is zero here; every
// other feature, the LSH candidates and the attribution must agree.
func TestSlotReuseMatchesFreshIndex(t *testing.T) {
	c := slotCorpus(t)
	newD3L := func() slotIndex {
		d := NewD3L()
		d.Weights[2] = 0
		return d
	}
	newJOSIE := func() slotIndex { return NewJOSIE() }
	for _, sys := range []struct {
		name string
		make func() slotIndex
	}{{"D3L", newD3L}, {"JOSIE", newJOSIE}} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x := sys.make()
			in := map[string]bool{}
			add := func(batch []*table.Table) {
				for _, tb := range batch {
					in[tb.Name] = true
				}
				// D3L indexes a batch in one call or stages and commits it;
				// both are one path.
				if d, ok := x.(*D3L); ok && rng.Intn(2) == 0 {
					if err := d.Commit(d.Stage(batch)); err != nil {
						t.Fatal(err)
					}
					return
				}
				if err := x.Index(batch); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 30; step++ {
				var out, present []*table.Table
				for _, tb := range c.Tables {
					if in[tb.Name] {
						present = append(present, tb)
					} else {
						out = append(out, tb)
					}
				}
				if len(present) > 0 && (len(out) == 0 || rng.Intn(5) < 2) {
					victim := present[rng.Intn(len(present))].Name
					x.Remove(victim)
					delete(in, victim)
					continue
				}
				rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
				add(out[:1+rng.Intn(min(3, len(out)))])
			}
			var survivors []*table.Table
			for _, tb := range c.Tables {
				if in[tb.Name] {
					survivors = append(survivors, tb)
				}
			}
			fresh := sys.make()
			if err := fresh.Index(survivors); err != nil {
				t.Fatal(err)
			}
			for _, q := range c.Tables {
				for _, k := range []int{4, 0} {
					if got, want := x.RelatedTables(q, k), fresh.RelatedTables(q, k); !sameScores(got, want) {
						t.Errorf("%s seed %d: RelatedTables(%s, %d) = %v, fresh index %v", sys.name, seed, q.Name, k, got, want)
					}
				}
				for _, col := range q.Columns {
					got, err := x.JoinableColumns(q, col.Name, 5)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.JoinableColumns(q, col.Name, 5)
					if err != nil {
						t.Fatal(err)
					}
					if !sameMatches(got, want) {
						t.Errorf("%s seed %d: JoinableColumns(%s, %s) = %v, fresh index %v", sys.name, seed, q.Name, col.Name, got, want)
					}
				}
			}
		}
	}
}

// A column whose name holds a dot belongs to its own table: answers
// name the table and the column as indexed, never a table "dotted.ref"
// with a column "id".
func TestJoinableColumnsAttributeDottedColumns(t *testing.T) {
	c := slotCorpus(t)
	for _, x := range []slotIndex{NewD3L(), NewJOSIE()} {
		if err := x.Index(c.Tables); err != nil {
			t.Fatal(err)
		}
		q := c.Tables[0]
		matches, err := x.JoinableColumns(q, c.KeyColumn[q.Name], 0)
		if err != nil {
			t.Fatal(err)
		}
		found := map[metamodel.ColumnRef]bool{}
		for _, m := range matches {
			found[m.Ref] = true
		}
		for _, want := range []metamodel.ColumnRef{{Table: "dotted", Column: "ref.id"}, {Table: "dotted.copy", Column: "ref.id"}} {
			if !found[want] {
				t.Errorf("%s: JoinableColumns(%s) = %v, want %v among them", x.Name(), q.Name, matches, want)
			}
		}
		dotted := c.Tables[len(c.Tables)-2]
		for _, ts := range x.RelatedTables(dotted, 0) {
			if _, ok := c.GroupOf[ts.Table]; !ok && ts.Table != "dotted.copy" {
				t.Errorf("%s: RelatedTables(dotted) names %q, not an indexed table", x.Name(), ts.Table)
			}
			if ts.Table == "dotted" {
				t.Errorf("%s: RelatedTables(dotted) answers the query table itself", x.Name())
			}
		}
	}
}

// D3L.RelatedTables of an indexed table on the 60-table golden-corpus
// spec: 15 allocations (Go 1.24) — the per-call table scores and slot
// marks, the candidate and seen lists as they grow, the answer. With
// candidates as "table.column" keys, sorted as strings, and the scores
// in two string-keyed maps, it took 56.
func TestD3LRelatedTablesAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	spec := workload.DefaultSpec()
	spec.NumTables, spec.JoinGroups, spec.Seed = 60, 8, 23
	c := workload.GenerateCorpus(spec)
	d := NewD3L()
	if err := d.Index(c.Tables); err != nil {
		t.Fatal(err)
	}
	next := 0
	n := testing.AllocsPerRun(50, func() {
		q := c.Tables[next%len(c.Tables)]
		next += 7
		if len(d.RelatedTables(q, 5)) == 0 {
			t.Fatalf("RelatedTables(%s) found nothing", q.Name)
		}
	})
	if n > 20 {
		t.Errorf("D3L.RelatedTables on %d tables: %v allocations, want <= 20", len(c.Tables), n)
	}
}
