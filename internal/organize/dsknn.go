package organize

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"golake/internal/sketch"
	"golake/internal/table"
)

// DSKNN implements the DS-Prox/DS-kNN dataset categorization
// (Alserafi et al., Sec. 6.1.2): every incoming dataset is profiled
// into data-based and metadata-based features; its k nearest already
// categorized neighbors vote on its category; if no neighbor is close
// enough, a fresh category is opened.
type DSKNN struct {
	// K is the number of neighbors consulted.
	K int
	// MinSim is the similarity floor below which a neighbor does not
	// count as evidence.
	MinSim float64

	// dict interns the attribute names, tokens and sampled values of
	// every categorised dataset.
	dict *sketch.Dict
	// members lists the categorised datasets in arrival order with
	// their profiles and categories, so the neighbour scan reads no map.
	members    []dsMember
	categories map[string]int
	nextCat    int
	// probe holds the incoming dataset's value sample while Add scores
	// the members against it.
	probe sketch.Probe
}

// dsMember is one categorised dataset: its profile and category.
type dsMember struct {
	f   *dsFeatures
	cat int
}

// neighbor is a categorised dataset scored against an incoming one.
type neighbor struct {
	name string
	sim  float64
	cat  int
}

// before orders neighbours by similarity descending, then name.
func (a neighbor) before(b neighbor) bool {
	if a.sim != b.sim {
		return a.sim > b.sim
	}
	return a.name < b.name
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
		dict:       sketch.NewDict(),
		categories: map[string]int{},
	}
}

func dsProfile(t *table.Table, ids *sketch.Dict) *dsFeatures {
	f := &dsFeatures{name: t.Name}
	numNumeric := 0
	var totDistinct, totMeanLen float64
	var kinds, names, tokens, values []string
	for _, c := range t.Columns {
		if c.Kind.Numeric() {
			numNumeric++
		}
		p := c.Profile()
		totDistinct += float64(len(p.Distinct))
		totMeanLen += p.MeanLen
		kinds = append(kinds, c.Kind.String())
		names = append(names, c.Name)
		tokens = append(tokens, sketch.Tokenize(c.Name)...)
		values = append(values, p.Distinct[:min(len(p.Distinct), 100)]...)
	}
	f.attrNames = ids.Set(names)
	f.attrTokens = ids.Set(tokens)
	f.valueSample = ids.Set(values)
	n := float64(t.NumCols())
	if n > 0 {
		f.numeric = [4]float64{n, float64(numNumeric) / n, totDistinct / n, totMeanLen / n}
	}
	sort.Strings(kinds)
	f.featString = fmt.Sprintf("%d|%s", t.NumCols(), strings.Join(kinds, ","))
	return f
}

// similarity combines the Levenshtein similarity of the metadata
// feature strings, attribute-name overlap, numeric feature closeness,
// and values, the data-based value-sample overlap (Jaccard) DS-kNN
// extracts per column, which the caller computes.
func similarity(a, b *dsFeatures, values float64) float64 {
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
	return 0.2*lev + 0.35*attr + 0.2*num + 0.25*values
}

// Add classifies a dataset into an existing or new category and returns
// the assigned category ID — the incremental k-NN step of DS-kNN.
func (d *DSKNN) Add(t *table.Table) int {
	f := dsProfile(t, d.dict)
	best := d.nearest(f)
	cat, bestVotes := -1, 0
	for _, nb := range best {
		if nb.sim < d.MinSim {
			continue
		}
		votes := 0
		for _, o := range best {
			if o.sim >= d.MinSim && o.cat == nb.cat {
				votes++
			}
		}
		if votes > bestVotes || (votes == bestVotes && nb.cat < cat) {
			cat, bestVotes = nb.cat, votes
		}
	}
	if cat < 0 {
		cat = d.nextCat
		d.nextCat++
	}
	if _, ok := d.categories[t.Name]; ok {
		// A retried maintenance pass adds a dataset again; every entry
		// it has then scores and votes as its latest profile and category.
		for i := range d.members {
			if d.members[i].f.name == t.Name {
				d.members[i] = dsMember{f: f, cat: cat}
			}
		}
	}
	d.categories[t.Name] = cat
	d.members = append(d.members, dsMember{f: f, cat: cat})
	return cat
}

// nearest returns the K categorised datasets most similar to f, most
// similar first and ties by name, kept by insertion into K slots. Each
// member's value sample is intersected with f's through d.probe.
func (d *DSKNN) nearest(f *dsFeatures) []neighbor {
	k := max(d.K, 0)
	best := make([]neighbor, 0, k)
	d.probe.Reset(f.valueSample)
	for _, m := range d.members {
		sim := similarity(f, m.f, d.probe.Jaccard(m.f.valueSample))
		nb := neighbor{name: m.f.name, sim: sim, cat: m.cat}
		j := len(best)
		switch {
		case j < k:
			best = append(best, nb)
		case j > 0 && nb.before(best[j-1]):
			j--
		default:
			continue
		}
		for ; j > 0 && nb.before(best[j-1]); j-- {
			best[j] = best[j-1]
		}
		best[j] = nb
	}
	return best
}

// Remove drops a dataset's profile and category assignment. Categories
// opened because of it stay numbered — classification of the remaining
// members is unaffected.
func (d *DSKNN) Remove(name string) {
	if _, ok := d.categories[name]; !ok {
		return
	}
	delete(d.categories, name)
	kept := d.members[:0]
	for _, m := range d.members {
		if m.f.name != name {
			kept = append(kept, m)
		}
	}
	clear(d.members[len(kept):])
	d.members = kept
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
