// Package workload generates the synthetic evaluation corpora the tests
// and the benchmark run on. The surveyed discovery systems were
// evaluated on corpora we cannot ship — web-table crawls (JOSIE, D3L)
// and 100 GitHub log datasets (DATAMARAN) — so this package produces
// seeded equivalents *with exact ground truth*: which table pairs are
// joinable/unionable, which log lines came from which template, which
// cells were dirtied, and which schema operations happened between
// versions. Ground truth is what lets the tests report
// precision/recall, which the original corpora could only approximate
// by manual labeling.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"golake/internal/table"
)

// CorpusSpec parameterizes web-table corpus generation.
type CorpusSpec struct {
	// NumTables is the total number of tables (>= JoinGroups).
	NumTables int
	// JoinGroups is the number of clusters of mutually joinable and
	// unionable tables. Tables in different groups are unrelated.
	JoinGroups int
	// RowsPerTable is the row count of each table.
	RowsPerTable int
	// ExtraCols is the number of distractor columns per table in
	// addition to the key, category and measure columns.
	ExtraCols int
	// KeyVocab is the size of each group's key-value universe; tables
	// in a group sample KeySample values from it, so expected pairwise
	// overlap is KeySample^2/KeyVocab.
	KeyVocab  int
	KeySample int
	// NoiseRate is the probability that a cell is replaced by a random
	// token (dirties the overlap signal).
	NoiseRate float64
	// AnonymousNames replaces the informative group-prefixed column
	// names with per-table opaque names (c0, c1, ...), removing the
	// attribute-name signal; discovery must then rely on values alone.
	AnonymousNames bool
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultSpec is a medium corpus suitable for tests.
func DefaultSpec() CorpusSpec {
	return CorpusSpec{
		NumTables:    40,
		JoinGroups:   8,
		RowsPerTable: 120,
		ExtraCols:    2,
		KeyVocab:     400,
		KeySample:    120,
		NoiseRate:    0.02,
		Seed:         42,
	}
}

// Pair is an unordered table-name pair; Key normalizes the order.
type Pair struct{ A, B string }

// NewPair returns the pair in canonical order.
func NewPair(a, b string) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Corpus is a generated table collection plus ground truth.
type Corpus struct {
	Tables []*table.Table
	// Joinable marks ground-truth joinable pairs (same group: their key
	// columns overlap by construction).
	Joinable map[Pair]bool
	// Unionable marks ground-truth unionable pairs (same group: same
	// schema over the same domains).
	Unionable map[Pair]bool
	// GroupOf maps table name -> join group.
	GroupOf map[string]int
	// KeyColumn maps table name -> the name of its key column.
	KeyColumn map[string]string
}

// TableNames returns the generated table names in order.
func (c *Corpus) TableNames() []string {
	out := make([]string, len(c.Tables))
	for i, t := range c.Tables {
		out[i] = t.Name
	}
	return out
}

// ByName returns the table with the given name, or nil.
func (c *Corpus) ByName(name string) *table.Table {
	for _, t := range c.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// GenerateCorpus builds a corpus per the spec. Tables in group g share:
// a key column "g<g>_key" sampling the group key universe, a categorical
// column "g<g>_cat" over the group vocabulary, and a numeric column
// "g<g>_measure" with group-specific distribution. Distractor columns
// use per-table vocabularies, so they should not create cross-table
// relatedness.
func GenerateCorpus(spec CorpusSpec) *Corpus {
	if spec.NumTables <= 0 || spec.JoinGroups <= 0 {
		panic("workload: invalid corpus spec")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	c := &Corpus{
		Joinable:  map[Pair]bool{},
		Unionable: map[Pair]bool{},
		GroupOf:   map[string]int{},
		KeyColumn: map[string]string{},
	}
	groupMembers := make([][]string, spec.JoinGroups)
	for i := 0; i < spec.NumTables; i++ {
		g := i % spec.JoinGroups
		name := fmt.Sprintf("t%03d_g%02d", i, g)
		tbl := genTable(rng, spec, name, g, i)
		keyCol := fmt.Sprintf("g%02d_key", g)
		if spec.AnonymousNames {
			for ci, col := range tbl.Columns {
				col.Name = fmt.Sprintf("c%d", ci)
			}
			keyCol = "c0"
		}
		c.Tables = append(c.Tables, tbl)
		c.GroupOf[name] = g
		c.KeyColumn[name] = keyCol
		groupMembers[g] = append(groupMembers[g], name)
	}
	for _, members := range groupMembers {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				p := NewPair(members[i], members[j])
				c.Joinable[p] = true
				c.Unionable[p] = true
			}
		}
	}
	return c
}

func genTable(rng *rand.Rand, spec CorpusSpec, name string, g, idx int) *table.Table {
	header := []string{
		fmt.Sprintf("g%02d_key", g),
		fmt.Sprintf("g%02d_cat", g),
		fmt.Sprintf("g%02d_measure", g),
	}
	for e := 0; e < spec.ExtraCols; e++ {
		header = append(header, fmt.Sprintf("x%03d_c%d", idx, e))
	}
	// Sample this table's key subset from the group universe.
	sample := spec.KeySample
	if sample > spec.KeyVocab {
		sample = spec.KeyVocab
	}
	perm := rng.Perm(spec.KeyVocab)[:sample]
	keys := make([]string, sample)
	for i, k := range perm {
		keys[i] = fmt.Sprintf("g%02d_id%05d", g, k)
	}
	catVocab := make([]string, 12)
	for i := range catVocab {
		catVocab[i] = fmt.Sprintf("g%02d_cat_%02d", g, i)
	}
	rows := make([][]string, spec.RowsPerTable)
	for r := range rows {
		row := make([]string, len(header))
		row[0] = keys[r%len(keys)]
		row[1] = catVocab[rng.Intn(len(catVocab))]
		row[2] = fmt.Sprintf("%.3f", rng.NormFloat64()*5+float64(g)*10)
		for e := 0; e < spec.ExtraCols; e++ {
			row[3+e] = fmt.Sprintf("x%03d_v%04d", idx, rng.Intn(500))
		}
		// Noise injection.
		for c := range row {
			if rng.Float64() < spec.NoiseRate {
				row[c] = fmt.Sprintf("noise_%06d", rng.Intn(1_000_000))
			}
		}
		rows[r] = row
	}
	tbl, err := table.FromRows(name, header, rows)
	if err != nil {
		panic(fmt.Sprintf("workload: generated ragged table: %v", err))
	}
	tbl.Meta["group"] = fmt.Sprintf("%d", g)
	tbl.Meta["description"] = fmt.Sprintf("synthetic web table, domain group %d", g)
	return tbl
}

// PrecisionRecall scores a predicted pair set against ground truth.
func PrecisionRecall(predicted []Pair, truth map[Pair]bool) (precision, recall float64) {
	if len(predicted) == 0 {
		if len(truth) == 0 {
			return 1, 1
		}
		return 0, 0
	}
	tp := 0
	seen := map[Pair]bool{}
	for _, p := range predicted {
		if seen[p] {
			continue
		}
		seen[p] = true
		if truth[p] {
			tp++
		}
	}
	precision = float64(tp) / float64(len(seen))
	if len(truth) > 0 {
		recall = float64(tp) / float64(len(truth))
	}
	return precision, recall
}

// TopKQuality scores per-query top-k result lists: for each query table,
// predicted holds the ranked related tables; relevant(q, r) defines
// ground truth. Returns mean precision@k and recall@k over queries.
func TopKQuality(queries []string, results map[string][]string, k int,
	relevant func(q, r string) bool, totalRelevant func(q string) int) (p, r float64) {
	if len(queries) == 0 {
		return 0, 0
	}
	var sumP, sumR float64
	for _, q := range queries {
		res := results[q]
		if len(res) > k {
			res = res[:k]
		}
		hits := 0
		for _, cand := range res {
			if relevant(q, cand) {
				hits++
			}
		}
		if len(res) > 0 {
			sumP += float64(hits) / float64(len(res))
		}
		if tot := totalRelevant(q); tot > 0 {
			den := tot
			if k < den {
				den = k
			}
			sumR += float64(hits) / float64(den)
		}
	}
	return sumP / float64(len(queries)), sumR / float64(len(queries))
}

// DirtySpec controls error injection for cleaning benchmarks.
type DirtySpec struct {
	NullRate float64
	TypoRate float64
	Seed     int64
}

// CellRef addresses one cell.
type CellRef struct {
	Row int
	Col int
}

// Dirty returns a dirtied copy of t plus the ground-truth list of
// corrupted cells. Typos perturb one character; nulls blank the cell.
func Dirty(t *table.Table, spec DirtySpec) (*table.Table, []CellRef) {
	rng := rand.New(rand.NewSource(spec.Seed))
	out := t.Clone()
	var dirt []CellRef
	for ci, col := range out.Columns {
		for ri := range col.Cells {
			switch {
			case rng.Float64() < spec.NullRate:
				col.Cells[ri] = ""
				dirt = append(dirt, CellRef{Row: ri, Col: ci})
			case rng.Float64() < spec.TypoRate && len(col.Cells[ri]) > 1:
				col.Cells[ri] = typo(rng, col.Cells[ri])
				dirt = append(dirt, CellRef{Row: ri, Col: ci})
			}
		}
	}
	return out, dirt
}

func typo(rng *rand.Rand, s string) string {
	b := []byte(s)
	i := rng.Intn(len(b))
	b[i] = byte('a' + rng.Intn(26))
	if string(b) == s {
		b[i] = byte('z' - (b[i] - 'a')) // force a change
	}
	return string(b)
}

// FormatPair renders "a⋈b" for reports.
func FormatPair(p Pair) string { return strings.Join([]string{p.A, p.B}, "⋈") }
