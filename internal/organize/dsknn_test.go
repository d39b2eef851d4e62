package organize

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"golake/internal/sketch"
	"golake/internal/table"
	"golake/internal/workload"
)

// featuresOf returns the profile DS-kNN holds for a dataset, nil if it
// holds none.
func featuresOf(d *DSKNN, name string) *dsFeatures {
	for _, m := range d.members {
		if m.f.name == name {
			return m.f
		}
	}
	return nil
}

// refDSKNN is DS-kNN as it was before the K-slot neighbour selection,
// kept verbatim as an oracle: every categorised dataset is scored, the
// whole list sorted and cut to K, and the votes counted in a map.
type refDSKNN struct {
	d          *DSKNN
	dict       *sketch.Dict
	features   map[string]*dsFeatures
	categories map[string]int
	order      []string
	nextCat    int
}

func newRefDSKNN() *refDSKNN {
	return &refDSKNN{
		d:          NewDSKNN(),
		dict:       sketch.NewDict(),
		features:   map[string]*dsFeatures{},
		categories: map[string]int{},
	}
}

// refSimilarity scores two profiles with the value samples intersected
// by a merge walk, as DS-kNN did before its probe.
func refSimilarity(a, b *dsFeatures) float64 {
	return similarity(a, b, sketch.ExactJaccard(a.valueSample, b.valueSample))
}

type refScored struct {
	name string
	sim  float64
}

func (r *refDSKNN) neighbors(f *dsFeatures) []refScored {
	var neighbors []refScored
	for _, name := range r.order {
		neighbors = append(neighbors, refScored{name: name, sim: refSimilarity(f, r.features[name])})
	}
	sort.Slice(neighbors, func(i, j int) bool {
		if neighbors[i].sim != neighbors[j].sim {
			return neighbors[i].sim > neighbors[j].sim
		}
		return neighbors[i].name < neighbors[j].name
	})
	if len(neighbors) > r.d.K {
		neighbors = neighbors[:r.d.K]
	}
	return neighbors
}

func (r *refDSKNN) Add(t *table.Table) int {
	f := dsProfile(t, r.dict)
	neighbors := r.neighbors(f)
	votes := map[int]int{}
	for _, nb := range neighbors {
		if nb.sim >= r.d.MinSim {
			votes[r.categories[nb.name]]++
		}
	}
	cat := -1
	bestVotes := 0
	for c, v := range votes {
		if v > bestVotes || (v == bestVotes && c < cat) {
			cat, bestVotes = c, v
		}
	}
	if cat < 0 {
		cat = r.nextCat
		r.nextCat++
	}
	r.features[t.Name] = f
	r.categories[t.Name] = cat
	r.order = append(r.order, t.Name)
	return cat
}

func (r *refDSKNN) Remove(name string) {
	if _, ok := r.features[name]; !ok {
		return
	}
	delete(r.features, name)
	delete(r.categories, name)
	kept := r.order[:0]
	for _, n := range r.order {
		if n != name {
			kept = append(kept, n)
		}
	}
	r.order = kept
}

// sameShapeCorpus is a corpus where most tables share one shape: one
// group with opaque column names, each table followed by exact copies
// under names that sort before and after it, so similarities tie
// exactly and the name order decides which neighbours are kept.
func sameShapeCorpus(seed int64) []*table.Table {
	spec := workload.DefaultSpec()
	spec.NumTables, spec.JoinGroups, spec.RowsPerTable, spec.AnonymousNames, spec.Seed = 24, 2, 30, true, seed
	var out []*table.Table
	for i, t := range workload.GenerateCorpus(spec).Tables {
		out = append(out, t)
		for _, name := range []string{"a" + t.Name, "z" + t.Name} {
			if i%3 == 0 {
				c := t.Clone()
				c.Name = name
				out = append(out, c)
			}
		}
	}
	return out
}

// TestDSKNNAddMatchesSortEverythingOracle: the K-slot neighbour
// selection keeps the same neighbours in the same order as scoring and
// sorting every categorised dataset, and so assigns every dataset the
// same category, through removals and a re-added dataset, on generated
// corpora and on one full of exact similarity ties.
func TestDSKNNAddMatchesSortEverythingOracle(t *testing.T) {
	corpora := map[string][]*table.Table{}
	for seed := int64(1); seed <= 3; seed++ {
		spec := workload.DefaultSpec()
		spec.Seed = seed
		corpora[fmt.Sprintf("default/seed%d", seed)] = workload.GenerateCorpus(spec).Tables
		corpora[fmt.Sprintf("same-shape/seed%d", seed)] = sameShapeCorpus(seed)
	}
	for name, tables := range corpora {
		t.Run(name, func(t *testing.T) {
			d, ref := NewDSKNN(), newRefDSKNN()
			ties := 0
			add := func(tb *table.Table) {
				t.Helper()
				got := d.nearest(dsProfile(tb, d.dict))
				want := ref.neighbors(dsProfile(tb, ref.dict))
				if len(got) != len(want) {
					t.Fatalf("%s: %d neighbours, oracle %d", tb.Name, len(got), len(want))
				}
				for j := range want {
					if got[j].name != want[j].name || got[j].sim != want[j].sim {
						t.Fatalf("%s: neighbour %d = %s %v, oracle %s %v", tb.Name, j, got[j].name, got[j].sim, want[j].name, want[j].sim)
					}
					if j > 0 && want[j].sim == want[j-1].sim {
						ties++
					}
				}
				if c, w := d.Add(tb), ref.Add(tb); c != w {
					t.Fatalf("%s: category %d, oracle %d", tb.Name, c, w)
				}
			}
			for i, tb := range tables {
				add(tb)
				if i%7 == 6 {
					victim := tables[i/2].Name
					d.Remove(victim)
					ref.Remove(victim)
				}
			}
			// A name added again, with other content, then a copy of
			// that content: the copy must meet every entry of the name
			// as its latest profile and category.
			for _, copyName := range []string{tables[1].Name, "last-copy"} {
				c := tables[len(tables)-1].Clone()
				c.Name = copyName
				add(c)
			}
			for _, tb := range tables {
				if c, w := d.Category(tb.Name), ref.categoryOf(tb.Name); c != w {
					t.Errorf("Category(%s) = %d, oracle %d", tb.Name, c, w)
				}
			}
			if got, want := d.Categories(), ref.categoriesByID(); !reflect.DeepEqual(got, want) {
				t.Errorf("Categories() = %v, oracle %v", got, want)
			}
			if strings.HasPrefix(name, "same-shape") && ties == 0 {
				t.Error("no exact similarity tie among kept neighbours; the corpus does not exercise the name order")
			}
		})
	}
}

func (r *refDSKNN) categoryOf(name string) int {
	c, ok := r.categories[name]
	if !ok {
		return -1
	}
	return c
}

func (r *refDSKNN) categoriesByID() map[int][]string {
	out := map[int][]string{}
	for name, c := range r.categories {
		out[c] = append(out[c], name)
	}
	for c := range out {
		sort.Strings(out[c])
	}
	return out
}

// TestDSKNNAddAllocationCeiling: classifying one dataset among 200
// categorised ones allocates for its own profile and a K-slot neighbour
// list, nothing per categorised dataset: 53 allocations (Go 1.24), the
// value-sample probe's bitmap reused from the last Add. Profiling each
// column in one walk (table.Column.Profile) in place of a listing and a
// second walk for the mean length also measures 53. Scoring into a
// growing, sorted list of every categorised dataset, with the votes in
// a map, took 84.
func TestDSKNNAddAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const lakeTables = 200
	spec := workload.DefaultSpec()
	spec.NumTables, spec.JoinGroups, spec.RowsPerTable = lakeTables+1, 8, 100
	tables := workload.GenerateCorpus(spec).Tables
	d := NewDSKNN()
	for _, tb := range tables[:lakeTables] {
		d.Add(tb)
	}
	fresh := tables[lakeTables]
	n := testing.AllocsPerRun(10, func() {
		d.Add(fresh)
		d.Remove(fresh.Name)
	})
	if n > 77 {
		t.Errorf("Add into %d: %v allocations, want <= 77 (measured 53)", lakeTables, n)
	}
}
