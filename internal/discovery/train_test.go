package discovery

import (
	"math"

	"golake/internal/metamodel"
)

// D3L's weights are fitted offline, against labelled column pairs; no
// lake path trains them, so the trainer lives beside its tests.

// LabeledPair is a training example for weight learning.
type LabeledPair struct {
	A, B    metamodel.ColumnRef
	Related bool
}

// Train fits the feature weights with logistic regression over the
// per-feature distances of labeled pairs (D3L trains a binary
// classifier and reuses its coefficients as distance weights). Pairs
// referencing unindexed columns are skipped.
func (d *D3L) Train(pairs []LabeledPair, epochs int, lr float64) int {
	type example struct {
		f [5]float64
		y float64
	}
	var data []example
	var q d3lQuery
	for _, p := range pairs {
		a, b := d.indexed(p.A.Table, p.A.Column), d.indexed(p.B.Table, p.B.Column)
		if a == nil || b == nil {
			continue
		}
		y := 0.0
		if p.Related {
			y = 1
		}
		q.reset(a)
		data = append(data, example{f: q.features(b), y: y})
	}
	if len(data) == 0 {
		return 0
	}
	// Logistic regression on similarity (1 - distance) per feature.
	w := [5]float64{0, 0, 0, 0, 0}
	bias := 0.0
	for e := 0; e < epochs; e++ {
		for _, ex := range data {
			z := bias
			for i := range w {
				z += w[i] * (1 - ex.f[i])
			}
			pred := 1 / (1 + math.Exp(-z))
			g := pred - ex.y
			bias -= lr * g
			for i := range w {
				w[i] -= lr * g * (1 - ex.f[i])
			}
		}
	}
	// Coefficients become (non-negative) distance weights.
	for i := range w {
		if w[i] < 0.05 {
			w[i] = 0.05
		}
	}
	d.Weights = w
	return len(data)
}
