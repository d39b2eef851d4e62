package organize

import (
	"fmt"
	"math"
	"sort"

	"golake/internal/sketch"
	"golake/internal/table"
)

// DSKNN implements the DS-Prox/DS-kNN dataset categorization
// (Alserafi et al., Sec. 6.1.2): every incoming dataset is profiled
// into data-based and metadata-based features; its k nearest already
// categorized neighbors vote on its category; if no neighbor is close
// enough, a fresh category is opened. The resulting similarity graph
// serves as a pre-filter for schema matching.
type DSKNN struct {
	// K is the number of neighbors consulted.
	K int
	// MinSim is the similarity floor below which a neighbor does not
	// count as evidence.
	MinSim float64

	features   map[string]*dsFeatures
	categories map[string]int
	order      []string
	nextCat    int
}

type dsFeatures struct {
	name string
	// featString is the concatenated metadata feature rendering
	// compared with Levenshtein, as in DS-Prox.
	featString string
	// numeric features: [numAttrs, fracNumeric, avgDistinct, avgMeanLen]
	numeric [4]float64
	// attrNames are the exact attribute names; attrTokens their tokens.
	attrNames  sketch.Set
	attrTokens sketch.Set
	// valueSample is a capped sample of distinct values across columns —
	// the "data-based features" of DS-kNN.
	valueSample sketch.Set
}

// NewDSKNN creates an instance with the paper-ish defaults.
func NewDSKNN() *DSKNN {
	return &DSKNN{
		K:          3,
		MinSim:     0.55,
		features:   map[string]*dsFeatures{},
		categories: map[string]int{},
	}
}

func dsProfile(t *table.Table) *dsFeatures {
	f := &dsFeatures{name: t.Name}
	numNumeric := 0
	var totDistinct, totMeanLen float64
	var kinds, names, tokens, values []string
	for _, c := range t.Columns {
		p := table.Profile(c)
		if c.Kind.Numeric() {
			numNumeric++
		}
		totDistinct += float64(p.Distinct)
		totMeanLen += p.MeanLen
		kinds = append(kinds, c.Kind.String())
		names = append(names, c.Name)
		tokens = append(tokens, sketch.Tokenize(c.Name)...)
		distinct := c.DistinctSlice()
		values = append(values, distinct[:min(len(distinct), 100)]...)
	}
	f.attrNames = sketch.ToSet(names)
	f.attrTokens = sketch.ToSet(tokens)
	f.valueSample = sketch.ToSet(values)
	n := float64(t.NumCols())
	if n > 0 {
		f.numeric = [4]float64{n, float64(numNumeric) / n, totDistinct / n, totMeanLen / n}
	}
	sort.Strings(kinds)
	f.featString = fmt.Sprintf("%d|%s", t.NumCols(), joinStrings(kinds, ","))
	return f
}

// Similarity combines the Levenshtein similarity of the metadata
// feature strings, attribute-name overlap, numeric feature closeness,
// and the data-based value-sample overlap DS-kNN extracts per column.
func (d *DSKNN) Similarity(a, b *dsFeatures) float64 {
	lev := sketch.LevenshteinSim(a.featString, b.featString)
	attr := 0.7*sketch.ExactJaccard(a.attrNames, b.attrNames) +
		0.3*sketch.ExactJaccard(a.attrTokens, b.attrTokens)
	var num float64
	for i := range a.numeric {
		den := math.Max(math.Abs(a.numeric[i]), math.Abs(b.numeric[i]))
		if den == 0 {
			num += 1
			continue
		}
		num += 1 - math.Abs(a.numeric[i]-b.numeric[i])/den
	}
	num /= float64(len(a.numeric))
	values := sketch.ExactJaccard(a.valueSample, b.valueSample)
	return 0.2*lev + 0.35*attr + 0.2*num + 0.25*values
}

// Add classifies a dataset into an existing or new category and returns
// the assigned category ID — the incremental k-NN step of DS-kNN.
func (d *DSKNN) Add(t *table.Table) int {
	f := dsProfile(t)
	type scored struct {
		name string
		sim  float64
	}
	var neighbors []scored
	for _, name := range d.order {
		neighbors = append(neighbors, scored{name: name, sim: d.Similarity(f, d.features[name])})
	}
	sort.Slice(neighbors, func(i, j int) bool {
		if neighbors[i].sim != neighbors[j].sim {
			return neighbors[i].sim > neighbors[j].sim
		}
		return neighbors[i].name < neighbors[j].name
	})
	if len(neighbors) > d.K {
		neighbors = neighbors[:d.K]
	}
	votes := map[int]int{}
	for _, nb := range neighbors {
		if nb.sim >= d.MinSim {
			votes[d.categories[nb.name]]++
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
		cat = d.nextCat
		d.nextCat++
	}
	d.features[t.Name] = f
	d.categories[t.Name] = cat
	d.order = append(d.order, t.Name)
	return cat
}

// Remove drops a dataset's profile and category assignment. Categories
// opened because of it stay numbered — classification of the remaining
// members is unaffected.
func (d *DSKNN) Remove(name string) {
	if _, ok := d.features[name]; !ok {
		return
	}
	delete(d.features, name)
	delete(d.categories, name)
	kept := d.order[:0]
	for _, n := range d.order {
		if n != name {
			kept = append(kept, n)
		}
	}
	d.order = kept
}

// Category returns the assigned category of a dataset (-1 if unknown).
func (d *DSKNN) Category(name string) int {
	c, ok := d.categories[name]
	if !ok {
		return -1
	}
	return c
}

// Categories returns category -> member datasets, members sorted.
func (d *DSKNN) Categories() map[int][]string {
	out := map[int][]string{}
	for name, c := range d.categories {
		out[c] = append(out[c], name)
	}
	for c := range out {
		sort.Strings(out[c])
	}
	return out
}

// SimilarityEdge is one weighted edge of the dataset similarity graph
// DS-kNN visualizes.
type SimilarityEdge struct {
	A, B string
	Sim  float64
}

// Graph returns all pairwise similarity edges above MinSim, sorted by
// descending similarity.
func (d *DSKNN) Graph() []SimilarityEdge {
	var out []SimilarityEdge
	for i := 0; i < len(d.order); i++ {
		for j := i + 1; j < len(d.order); j++ {
			a, b := d.order[i], d.order[j]
			sim := d.Similarity(d.features[a], d.features[b])
			if sim >= d.MinSim {
				out = append(out, SimilarityEdge{A: a, B: b, Sim: sim})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].A+out[i].B < out[j].A+out[j].B
	})
	return out
}

func joinStrings(ss []string, sep string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += sep
		}
		out += s
	}
	return out
}
