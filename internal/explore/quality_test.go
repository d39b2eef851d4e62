package explore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"golake/internal/discovery"
	"golake/internal/metamodel"
	"golake/internal/table"
	"golake/internal/workload"
)

// The discovery quality referee. On top of workload.GenerateCorpus it
// plants ground truth for the five relations the survey's discovery
// section tells apart, and scores every index and explorer mode on each
// by precision@k, recall@k and MRR over three seeds. The golden file
// pins answers bit for bit; this test is the referee for a change that
// may move scores: it fails when a figure drops below its floor.
//
//	go test -run DiscoveryQuality -v ./internal/explore/
//
// prints the README's quality table.

// relation is one of the planted relations.
type relation int

const (
	// relJoinable: the corpus's own pairs, tables of one group sharing
	// sampled keys.
	relJoinable relation = iota
	// relUnionable: a table of one group's schema and value formats whose
	// values no other table holds; relevant are the group's tables.
	relUnionable
	// relAugmenting: a table's rows plus half as many new ones from the
	// same universe; the query is the table.
	relAugmenting
	// relCleaner: workload.Dirty of a table; the query is the dirty copy,
	// relevant its source.
	relCleaner
	// relRenamed: a table with opaque column names and the same values;
	// relevant is its source.
	relRenamed
	numRelations
)

var relationNames = [numRelations]string{"joinable", "unionable", "augmenting", "cleaner version", "renamed schema"}

const qualityK = 5

var qualitySeeds = []int64{1, 2, 3}

// qualitySpec is the base corpus; a seed fills in Seed.
var qualitySpec = workload.CorpusSpec{
	NumTables: 24, JoinGroups: 4, RowsPerTable: 100, ExtraCols: 2,
	KeyVocab: 300, KeySample: 90, NoiseRate: 0.02,
}

// plantsPerGroup is how many tables of each group a planted relation
// derives from, each giving one query.
const plantsPerGroup = 2

// plantedQuery is one query of a relation with its ground truth.
type plantedQuery struct {
	table *table.Table
	// column is the query's key column, for join-column requests.
	column   string
	relevant map[string]bool
}

// plantedCorpus is the base corpus plus one relation's planted tables.
type plantedCorpus struct {
	tables  []*table.Table
	queries []plantedQuery
}

// plant builds relation rel's corpus for one seed. Planted tables' names
// (u…, v…, w…, y…) sort after every base table's (t…), so a tie by
// score never favours them.
func plant(rel relation, seed int64) *plantedCorpus {
	spec := qualitySpec
	spec.Seed = seed
	c := workload.GenerateCorpus(spec)
	pc := &plantedCorpus{tables: append([]*table.Table(nil), c.Tables...)}
	if rel == relJoinable {
		for _, t := range c.Tables {
			relevant := map[string]bool{}
			for _, o := range c.Tables {
				if c.Joinable[workload.NewPair(t.Name, o.Name)] {
					relevant[o.Name] = true
				}
			}
			pc.queries = append(pc.queries, plantedQuery{table: t, column: c.KeyColumn[t.Name], relevant: relevant})
		}
		return pc
	}
	rng := rand.New(rand.NewSource(seed*int64(numRelations) + int64(rel)))
	taken := map[string]bool{}
	for _, t := range c.Tables {
		for _, col := range t.Columns {
			for _, v := range col.Cells {
				taken[v] = true
			}
		}
	}
	groups := spec.JoinGroups
	for j := 0; j < plantsPerGroup; j++ {
		for g := 0; g < groups; g++ {
			p := j*groups + g // plant number
			srcIdx := p       // GenerateCorpus puts table i in group i % groups
			src := c.Tables[srcIdx]
			name := fmt.Sprintf("%c%03d_g%02d", "-uvwy"[rel], p, g)
			key := c.KeyColumn[src.Name]
			switch rel {
			case relUnionable:
				// Key ids and categories past every other table's, extra
				// columns of a table index no base table has, and no
				// measure another table holds.
				u := groupTable(rng, name, g, spec.NumTables+p, spec.RowsPerTable,
					spec.KeyVocab*(1+p), catVocab*(1+p), taken)
				pc.tables = append(pc.tables, u)
				pc.queries = append(pc.queries, plantedQuery{table: u, column: key, relevant: map[string]bool{}})
			case relAugmenting:
				more := groupTable(rng, name, g, srcIdx, spec.RowsPerTable/2, 0, 0, nil)
				a := src.Clone()
				a.Name = name
				for i := 0; i < more.NumRows(); i++ {
					if err := a.AppendRow(more.Row(i)); err != nil {
						panic(err)
					}
				}
				pc.tables = append(pc.tables, a)
				pc.queries = append(pc.queries, plantedQuery{table: src, column: key, relevant: map[string]bool{name: true}})
			case relCleaner:
				d, _ := workload.Dirty(src, workload.DirtySpec{NullRate: 0.15, TypoRate: 0.1, Seed: rng.Int63()})
				d.Name = name
				pc.tables = append(pc.tables, d)
				pc.queries = append(pc.queries, plantedQuery{table: d, column: key, relevant: map[string]bool{src.Name: true}})
			case relRenamed:
				r := src.Clone()
				r.Name = name
				for ci, col := range r.Columns {
					col.Name = fmt.Sprintf("attr%d", ci)
				}
				pc.tables = append(pc.tables, r)
				pc.queries = append(pc.queries, plantedQuery{table: r, column: "attr0", relevant: map[string]bool{src.Name: true}})
			}
		}
	}
	if rel == relUnionable {
		// Every other table of a union plant's group is unionable with it.
		for _, q := range pc.queries {
			g := groupOf(q.table.Name)
			for _, t := range pc.tables {
				if t.Name != q.table.Name && groupOf(t.Name) == g {
					q.relevant[t.Name] = true
				}
			}
		}
	}
	return pc
}

// groupOf reads the group from a table name ending in _g<g>.
func groupOf(name string) string { return name[strings.LastIndex(name, "_g"):] }

// catVocab is how many categories GenerateCorpus gives a group.
const catVocab = 12

// groupTable generates a table of group g's schema as GenerateCorpus
// does, which draws keys g<g>_id<k> for k below KeyVocab and categories
// g<g>_cat_<n> for n below catVocab. Here k is in [keyLo,
// keyLo+KeyVocab), n in [catLo, catLo+catVocab), the measures follow
// the group's distribution, and the extra columns are those of table
// index idx. With taken non-nil, a row holding a value of taken is
// drawn again, and the table's values are added to taken.
func groupTable(rng *rand.Rand, name string, g, idx, rows, keyLo, catLo int, taken map[string]bool) *table.Table {
	header := []string{fmt.Sprintf("g%02d_key", g), fmt.Sprintf("g%02d_cat", g), fmt.Sprintf("g%02d_measure", g)}
	for e := 0; e < qualitySpec.ExtraCols; e++ {
		header = append(header, fmt.Sprintf("x%03d_c%d", idx, e))
	}
	cells := make([][]string, 0, rows)
	for len(cells) < rows {
		row := []string{
			fmt.Sprintf("g%02d_id%05d", g, keyLo+rng.Intn(qualitySpec.KeyVocab)),
			fmt.Sprintf("g%02d_cat_%02d", g, catLo+rng.Intn(catVocab)),
			fmt.Sprintf("%.3f", rng.NormFloat64()*5+float64(g)*10),
		}
		for e := 0; e < qualitySpec.ExtraCols; e++ {
			row = append(row, fmt.Sprintf("x%03d_v%04d", idx, rng.Intn(500)))
		}
		if !slices.ContainsFunc(row, func(v string) bool { return taken[v] }) {
			cells = append(cells, row)
		}
	}
	if taken != nil {
		for _, row := range cells {
			for _, v := range row {
				taken[v] = true
			}
		}
	}
	t, err := table.FromRows(name, header, cells)
	if err != nil {
		panic(err)
	}
	return t
}

// qualityMethod is one index or explorer mode under test: rank answers
// a query with an Explorer indexed on the query's corpus. skip holds
// the relations its request cannot express.
type qualityMethod struct {
	name string
	rank func(e *Explorer, q plantedQuery, k int) []string
	skip map[relation]bool
}

// qualityMethods are what the referee scores: the explorer's three
// indexes, Juneau under each task, and its five requests. A join-column
// request asks for tables sharing a column's values, so it cannot
// express a union of disjoint values.
var qualityMethods = []qualityMethod{
	{name: "JOSIE", rank: func(e *Explorer, q plantedQuery, k int) []string {
		return scoreNames(e.josie.RelatedTables(q.table, k))
	}},
	{name: "D3L", rank: func(e *Explorer, q plantedQuery, k int) []string {
		return scoreNames(e.d3l.RelatedTables(q.table, k))
	}},
	juneauTask(discovery.TaskAugment),
	juneauTask(discovery.TaskFeatures),
	juneauTask(discovery.TaskClean),
	mode("explore join-column", Request{Mode: ModeJoinColumn}, relUnionable),
	mode("explore populate", Request{Mode: ModePopulate}),
	mode("explore task augment", Request{Mode: ModeTask, Task: discovery.TaskAugment}),
	mode("explore task features", Request{Mode: ModeTask, Task: discovery.TaskFeatures}),
	mode("explore task clean", Request{Mode: ModeTask, Task: discovery.TaskClean}),
}

// juneauTask ranks with the explorer's Juneau under one task.
func juneauTask(task discovery.SearchTask) qualityMethod {
	name, _ := taskName(task)
	return qualityMethod{name: "Juneau " + name, rank: func(e *Explorer, q plantedQuery, k int) []string {
		return scoreNames(e.juneau.RelatedTablesFor(q.table, task, k))
	}}
}

// mode ranks with one explorer request.
func mode(name string, req Request, skip ...relation) qualityMethod {
	m := qualityMethod{name: name, skip: map[relation]bool{}, rank: func(e *Explorer, q plantedQuery, k int) []string {
		req.Query, req.Column, req.K = q.table, q.column, k
		res, err := e.Explore(req)
		if err != nil {
			panic(err)
		}
		out := make([]string, len(res))
		for i, r := range res {
			out[i] = r.Table
		}
		return out
	}}
	for _, rel := range skip {
		m.skip[rel] = true
	}
	return m
}

func scoreNames(res []metamodel.TableScore) []string {
	out := make([]string, len(res))
	for i, s := range res {
		out[i] = s.Table
	}
	return out
}

// quality is one method's MRR, precision@k and recall@k on one
// relation.
type quality [3]float64

var figureNames = [3]string{"MRR", "P@5", "R@5"}

// score runs a relation's queries through m over e.
func score(pc *plantedCorpus, e *Explorer, m qualityMethod) quality {
	names := make([]string, len(pc.queries))
	results := map[string][]string{}
	relevant := map[string]map[string]bool{}
	var rr float64
	for i, q := range pc.queries {
		res := m.rank(e, q, qualityK)
		names[i] = q.table.Name
		results[q.table.Name] = res
		relevant[q.table.Name] = q.relevant
		for pos, t := range res {
			if q.relevant[t] {
				rr += 1 / float64(pos+1)
				break
			}
		}
	}
	p, r := workload.TopKQuality(names, results, qualityK,
		func(q, r string) bool { return relevant[q][r] },
		func(q string) int { return len(relevant[q]) })
	return quality{rr / float64(len(pc.queries)), p, r}
}

// measureQuality scores every method on every relation it is scored on,
// once per seed: out[method][relation][seed].
func measureQuality(t *testing.T) map[string]*[numRelations][]quality {
	out := map[string]*[numRelations][]quality{}
	for _, m := range qualityMethods {
		out[m.name] = new([numRelations][]quality)
	}
	for rel := relation(0); rel < numRelations; rel++ {
		for _, seed := range qualitySeeds {
			pc := plant(rel, seed)
			e := NewExplorer()
			if err := e.Index(pc.tables); err != nil {
				t.Fatal(err)
			}
			for _, m := range qualityMethods {
				if !m.skip[rel] {
					out[m.name][rel] = append(out[m.name][rel], score(pc, e, m))
				}
			}
		}
	}
	return out
}

// qualityFloors holds each method's floor per relation: every figure's
// minimum over the seeds, minus 0.05, rounded down to a hundredth and
// at least 0, in relationNames order. A relation a method is not scored
// on holds zeros.
var qualityFloors = map[string][numRelations]quality{
	"JOSIE":                 {{0.95, 0.95, 0.95}, {0, 0, 0}, {0.7, 0.1, 0.7}, {0.95, 0.14, 0.95}, {0.82, 0.14, 0.95}},
	"D3L":                   {{0.95, 0.95, 0.95}, {0.95, 0.95, 0.95}, {0.95, 0.14, 0.95}, {0.95, 0.14, 0.95}, {0.7, 0.14, 0.95}},
	"Juneau augment":        {{0.95, 0.95, 0.95}, {0.95, 0.95, 0.95}, {0.95, 0.14, 0.95}, {0.95, 0.14, 0.95}, {0, 0, 0}},
	"Juneau features":       {{0.95, 0.95, 0.95}, {0, 0, 0}, {0.53, 0.1, 0.7}, {0.38, 0.07, 0.57}, {0.95, 0.14, 0.95}},
	"Juneau clean":          {{0.95, 0.95, 0.95}, {0.95, 0.95, 0.95}, {0.95, 0.14, 0.95}, {0.95, 0.14, 0.95}, {0.45, 0.14, 0.95}},
	"explore join-column":   {{0.95, 0.95, 0.95}, {0, 0, 0}, {0.95, 0.14, 0.95}, {0.95, 0.14, 0.95}, {0.95, 0.14, 0.95}},
	"explore populate":      {{0.95, 0.95, 0.95}, {0.95, 0.95, 0.95}, {0.95, 0.14, 0.95}, {0.95, 0.14, 0.95}, {0.7, 0.14, 0.95}},
	"explore task augment":  {{0.95, 0.95, 0.95}, {0.95, 0.95, 0.95}, {0.95, 0.14, 0.95}, {0.95, 0.14, 0.95}, {0, 0, 0}},
	"explore task features": {{0.95, 0.95, 0.95}, {0, 0, 0}, {0.53, 0.1, 0.7}, {0.38, 0.07, 0.57}, {0.95, 0.14, 0.95}},
	"explore task clean":    {{0.95, 0.95, 0.95}, {0.95, 0.95, 0.95}, {0.95, 0.14, 0.95}, {0.95, 0.14, 0.95}, {0.45, 0.14, 0.95}},
}

func TestDiscoveryQuality(t *testing.T) {
	got := measureQuality(t)
	var md, floors strings.Builder
	md.WriteString("| index or mode |")
	for _, n := range relationNames {
		fmt.Fprintf(&md, " %s |", n)
	}
	md.WriteString("\n|---|" + strings.Repeat("---:|", int(numRelations)) + "\n")
	for _, m := range qualityMethods {
		want, ok := qualityFloors[m.name]
		if !ok {
			t.Errorf("%s: no floors stated", m.name)
		}
		fmt.Fprintf(&md, "| %s |", m.name)
		var lows []string
		for rel := relation(0); rel < numRelations; rel++ {
			runs := got[m.name][rel]
			var mean quality
			low := quality{1, 1, 1}
			for i, q := range runs {
				for f, v := range q {
					mean[f] += v / float64(len(runs))
					low[f] = math.Min(low[f], v)
					if v < want[rel][f] {
						t.Errorf("%s on %s, seed %d: %s = %.3f, below its floor %.2f",
							m.name, relationNames[rel], qualitySeeds[i], figureNames[f], v, want[rel][f])
					}
				}
			}
			if len(runs) == 0 {
				md.WriteString(" — |")
				low = quality{}
			} else {
				fmt.Fprintf(&md, " %.2f · %.2f · %.2f |", mean[0], mean[1], mean[2])
			}
			for f := range low {
				low[f] = math.Max(0, math.Floor((low[f]-0.05)*100)/100)
			}
			lows = append(lows, fmt.Sprintf("{%v, %v, %v}", low[0], low[1], low[2]))
		}
		md.WriteString("\n")
		fmt.Fprintf(&floors, "\t%q: {%s},\n", m.name, strings.Join(lows, ", "))
	}
	t.Logf("mean over seeds %v, %s · %s · %s:\n%s", qualitySeeds, figureNames[0], figureNames[1], figureNames[2], md.String())
	t.Logf("floors at this commit:\n%s", floors.String())
}
