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

// slotIndex is a column-slot index answering both kinds of query: D3L
// or JOSIE.
type slotIndex interface {
	Discoverer
	JoinSearcher
	Remove(tableName string)
}

// catalogIndexes are D3L, JOSIE and Juneau over one catalog, held the
// way the explorer holds them. D3L's corpus-trained embedding depends on
// what was ever indexed (see TestD3LIncrementalDriftBounded), so its
// weight is zero here.
type catalogIndexes struct {
	cat    *Catalog
	d3l    *D3L
	josie  *JOSIE
	juneau *Juneau
}

func newCatalogIndexes() *catalogIndexes {
	cat := NewCatalog()
	x := &catalogIndexes{cat: cat, d3l: NewD3L(cat), josie: NewJOSIE(cat), juneau: NewJuneau(cat, TaskAugment)}
	x.d3l.Weights[2] = 0
	return x
}

// index adds a batch to all three indexes, starting with the one first
// names (0 D3L, 1 JOSIE, 2 Juneau), which adds the batch to the
// catalog; D3L indexes in one call or stages and commits, both one path.
func (x *catalogIndexes) index(batch []*table.Table, first int, stage bool) error {
	for i := 0; i < 3; i++ {
		var err error
		switch (first + i) % 3 {
		case 0:
			if stage {
				err = x.d3l.Commit(x.d3l.Stage(batch, Profiles(batch)))
			} else {
				err = x.d3l.Index(batch)
			}
		case 1:
			err = x.josie.Index(batch)
		case 2:
			err = x.juneau.Index(batch)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// remove drops a table from every index, then frees it in the catalog.
func (x *catalogIndexes) remove(name string) {
	x.d3l.Remove(name)
	x.josie.Remove(name)
	x.juneau.Remove(name)
	x.cat.Remove(name)
}

// Seeded interleavings of indexing, incremental adds and removes —
// re-adding removed tables, so freed slots and table ids are reused —
// with D3L, JOSIE and Juneau over one catalog, removing through the
// catalog's owner, must leave every index answering bit for bit like a
// fresh index of the surviving tables: every table of the pool as the
// query, indexed or not, for RelatedTables and JoinableColumns on every
// column, JOSIE's RelatedTablesOf, and Juneau under all three tasks.
// Every D3L feature but the embedding, the LSH candidates and the
// attribution must agree.
func TestSlotReuseMatchesFreshIndex(t *testing.T) {
	c := slotCorpus(t)
	poolCols := 0
	for _, tb := range c.Tables {
		poolCols += len(tb.Columns)
	}
	tasks := []SearchTask{TaskAugment, TaskFeatures, TaskClean}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := newCatalogIndexes()
		in := map[string]bool{}
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
				x.remove(victim)
				delete(in, victim)
				continue
			}
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			batch := out[:1+rng.Intn(min(3, len(out)))]
			for _, tb := range batch {
				in[tb.Name] = true
			}
			if err := x.index(batch, rng.Intn(3), rng.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		}
		if len(x.cat.cols) > poolCols || len(x.cat.tables) > len(c.Tables) {
			t.Errorf("seed %d: %d slots and %d table ids for a pool of %d columns in %d tables: freed ones not reused",
				seed, len(x.cat.cols), len(x.cat.tables), poolCols, len(c.Tables))
		}
		var survivors []*table.Table
		for _, tb := range c.Tables {
			if in[tb.Name] {
				survivors = append(survivors, tb)
			}
		}
		fresh := newCatalogIndexes()
		if err := fresh.index(survivors, 0, false); err != nil {
			t.Fatal(err)
		}
		for _, q := range c.Tables {
			for _, k := range []int{4, 0} {
				for _, sys := range []struct {
					name       string
					got, fresh Discoverer
				}{{"D3L", x.d3l, fresh.d3l}, {"JOSIE", x.josie, fresh.josie}} {
					if got, want := sys.got.RelatedTables(q, k), sys.fresh.RelatedTables(q, k); !sameScores(got, want) {
						t.Errorf("%s seed %d: RelatedTables(%s, %d) = %v, fresh index %v", sys.name, seed, q.Name, k, got, want)
					}
				}
				if got, want := x.josie.RelatedTablesOf(q.Name, k), fresh.josie.RelatedTablesOf(q.Name, k); !sameScores(got, want) {
					t.Errorf("JOSIE seed %d: RelatedTablesOf(%s, %d) = %v, fresh index %v", seed, q.Name, k, got, want)
				}
				for _, task := range tasks {
					if got, want := x.juneau.RelatedTablesFor(q, task, k), fresh.juneau.RelatedTablesFor(q, task, k); !sameScores(got, want) {
						t.Errorf("Juneau seed %d: RelatedTablesFor(%s, %d, %d) = %v, fresh index %v", seed, q.Name, task, k, got, want)
					}
				}
			}
			for _, col := range q.Columns {
				for _, sys := range []struct {
					name       string
					got, fresh JoinSearcher
				}{{"D3L", x.d3l, fresh.d3l}, {"JOSIE", x.josie, fresh.josie}} {
					got, err := sys.got.JoinableColumns(q, col.Name, 5)
					if err != nil {
						t.Fatal(err)
					}
					want, err := sys.fresh.JoinableColumns(q, col.Name, 5)
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
	for _, x := range []slotIndex{NewD3L(NewCatalog()), NewJOSIE(NewCatalog())} {
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
// spec: 1 allocation (Go 1.24), the answer. The table scores, slot
// marks, candidate and seen lists and the query column's probes come
// from a pool; made per call, they took 15. With candidates as
// "table.column" keys, sorted as strings, and the scores in two
// string-keyed maps, it took 56.
func TestD3LRelatedTablesAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	spec := workload.DefaultSpec()
	spec.NumTables, spec.JoinGroups, spec.Seed = 60, 8, 23
	c := workload.GenerateCorpus(spec)
	d := NewD3L(NewCatalog())
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
	if n > 5 {
		t.Errorf("D3L.RelatedTables on %d tables: %v allocations, want <= 5", len(c.Tables), n)
	}
}

// Juneau.RelatedTablesFor of an indexed table on the 60-table
// golden-corpus spec, in all three tasks: 21 allocations (Go 1.24), as
// at the parent, which scored by merge walks: the answers as they grow.
// Its probes come from a pool; preparing them in a fresh scratch per
// call took 46.
func TestJuneauRelatedTablesAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	spec := workload.DefaultSpec()
	spec.NumTables, spec.JoinGroups, spec.Seed = 60, 8, 23
	c := workload.GenerateCorpus(spec)
	j := NewJuneau(NewCatalog(), TaskAugment)
	if err := j.Index(c.Tables); err != nil {
		t.Fatal(err)
	}
	next := 0
	n := testing.AllocsPerRun(50, func() {
		q := c.Tables[next%len(c.Tables)]
		next += 7
		for _, task := range []SearchTask{TaskAugment, TaskFeatures, TaskClean} {
			if len(j.RelatedTablesFor(q, task, 5)) == 0 {
				t.Fatalf("RelatedTablesFor(%s, %d) found nothing", q.Name, task)
			}
		}
	})
	if n > 30 {
		t.Errorf("Juneau.RelatedTablesFor in three tasks on %d tables: %v allocations, want <= 30", len(c.Tables), n)
	}
}

// An index that removes a table while its catalog keeps it, and then
// indexes a table of that name with a column the catalog lacks, indexes
// that column too.
func TestReindexAddsColumnsTheCatalogLacks(t *testing.T) {
	v1, err := table.ParseCSV("t", "k\nx\ny\n")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := table.ParseCSV("t", "k,extra\nx,p\ny,q\n")
	if err != nil {
		t.Fatal(err)
	}
	other, err := table.ParseCSV("o", "link\np\nq\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []slotIndex{NewD3L(NewCatalog()), NewJOSIE(NewCatalog())} {
		if err := x.Index([]*table.Table{v1, other}); err != nil {
			t.Fatal(err)
		}
		x.Remove("t")
		if err := x.Index([]*table.Table{v2}); err != nil {
			t.Fatal(err)
		}
		got, err := x.JoinableColumns(other, "link", 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := (metamodel.ColumnRef{Table: "t", Column: "extra"}); len(got) != 1 || got[0].Ref != want {
			t.Errorf("%s: JoinableColumns(o, link) = %v, want %v", x.Name(), got, want)
		}
	}
}
