package main

import (
	"context"
	"fmt"
	"time"

	"golake/internal/clean"
	"golake/internal/discovery"
	"golake/internal/enrich"
	"golake/internal/explore"
	"golake/internal/organize"
	"golake/internal/table"
	corpusgen "golake/internal/workload"
)

// layersCurate prices the maintenance and exploration tiers on
// curate_journey's corpus: a maintenance pass whole (full, and
// incremental at two lake sizes), the survey functions a pass is made
// of, each alone on the same tables, and the discovery reads.
func layersCurate(ctx context.Context, e *env, m *layerMetrics, iters, grownTables int) error {
	corpus := corpusgen.GenerateCorpus(corpusSpec(e, e.sz.corpusTables, 31))
	tables := corpus.Tables
	base := len(tables)
	fresh, _ := freshTables(e, 2*iters+grownTables-base, 34)
	user := users[0].name
	nextFresh := 0
	takeFresh := func() *table.Table { t := fresh[nextFresh]; nextFresh++; return t }

	// The parts of a pass, alone.
	ds, err := timeEach(5, func(int) error { return explore.NewExplorer().Index(tables) })
	m.did(err)
	m.set("explore.index_ms", ms(medianDur(ds)), "Explorer.Index over %d tables, median of %d", base, len(ds))

	ex := explore.NewExplorer()
	m.did(ex.Index(tables))
	knn := organize.NewDSKNN()
	for _, t := range tables {
		knn.Add(t)
	}
	var addT, knnT, rfdT, clamsT []time.Duration
	for i := 0; i < iters; i++ {
		t := fresh[i] // read-only here; the lakes below ingest their own CSV copies
		start := time.Now()
		err := ex.Add(t)
		addT = append(addT, time.Since(start))
		m.did(err)
		start = time.Now()
		knn.Add(t)
		knnT = append(knnT, time.Since(start))
		start = time.Now()
		enrich.DiscoverRFDs(t, 0.95)
		rfdT = append(rfdT, time.Since(start))
		start = time.Now()
		clean.RankViolations(t, clean.DiscoverConstraints(t, 0.9))
		clamsT = append(clamsT, time.Since(start))
	}
	m.set("explore.add_ms", ms(medianDur(addT)), "Explorer.Add of one table to %d+ indexed, median of %d", base, len(addT))
	m.set("organize.knn_add_us", us(medianDur(knnT)), "DSKNN.Add of one table to %d+ categorized, median of %d", base, len(knnT))
	m.set("enrich.rfd_ms", ms(medianDur(rfdT)), "DiscoverRFDs(t, 0.95), %d-row tables, median of %d", e.sz.corpusRows, len(rfdT))
	m.set("clean.clams_ms", ms(medianDur(clamsT)), "DiscoverConstraints + RankViolations, %d-row tables, median of %d", e.sz.corpusRows, len(clamsT))

	// Whole passes and discovery reads, on the maintained lake.
	f := &fixture{}
	defer f.remove()
	defer f.stop()
	d, err := curateLake(ctx, e, f, corpus)
	if err != nil {
		return err
	}
	ds, err = timeEach(3, func(int) error { _, err := d.lake.Maintain(ctx); return err })
	m.did(err)
	m.set("maintain.full_pass_ms", ms(medianDur(ds)), "Lake.Maintain over %d tables, median of %d", base, len(ds))

	readTimes := func(call func(t *table.Table) ([]explore.Result, error)) []time.Duration {
		ds, err := timeEach(iters, func(i int) error {
			t := tables[i%len(tables)]
			res, err := call(t)
			if err == nil && len(res) == 0 {
				err = fmt.Errorf("no results for %s", t.Name)
			}
			return err
		})
		m.did(err)
		return ds
	}
	m.set("explore.related_ms", ms(medianDur(readTimes(func(t *table.Table) ([]explore.Result, error) {
		return d.lake.RelatedTables(ctx, user, t.Name, relatedK)
	}))), "Lake.RelatedTables k=%d on %d maintained tables, median of %d", relatedK, base, iters)
	m.set("explore.join_column_ms", ms(medianDur(readTimes(func(t *table.Table) ([]explore.Result, error) {
		return d.lake.Explore(ctx, user, explore.Request{Mode: explore.ModeJoinColumn, Query: t, Column: corpus.KeyColumn[t.Name], K: relatedK})
	}))), "Lake.Explore join-column mode, median of %d", iters)
	m.set("explore.populate_ms", ms(medianDur(readTimes(func(t *table.Table) ([]explore.Result, error) {
		return d.lake.Explore(ctx, user, explore.Request{Mode: explore.ModePopulate, Query: t, K: relatedK})
	}))), "Lake.Explore populate mode, median of %d", iters)
	m.set("explore.task_ms", ms(medianDur(readTimes(func(t *table.Table) ([]explore.Result, error) {
		return d.lake.Explore(ctx, user, explore.Request{Mode: explore.ModeTask, Query: t, Task: discovery.TaskAugment, K: relatedK})
	}))), "Lake.Explore task mode (augment), median of %d", iters)

	// Recall against the corpus ground truth: exact, not a timing.
	names := corpus.TableNames()
	results := map[string][]string{}
	for _, name := range names {
		res, err := d.lake.RelatedTables(ctx, user, name, relatedK)
		m.did(err)
		for _, r := range res {
			results[name] = append(results[name], r.Table)
		}
	}
	sameGroup := func(q, r string) bool { return q != r && corpus.GroupOf[q] == corpus.GroupOf[r] }
	groupSize := func(q string) int {
		n := 0
		for _, other := range names {
			if sameGroup(q, other) {
				n++
			}
		}
		return n
	}
	_, recall := corpusgen.TopKQuality(names, results, relatedK, sameGroup, groupSize)
	m.set("explore.recall_at_5", recall, "RelatedTables top %d vs same-join-group ground truth, %d query tables", relatedK, len(names))

	// Incremental passes: one new table each, at the corpus size and on
	// the lake grown to grownTables.
	incremental := func() []time.Duration {
		var out []time.Duration
		for i := 0; i < iters; i++ {
			t := takeFresh()
			if err := d.preload(ctx, csvPath(t.Name), []byte(table.ToCSV(t))); err != nil {
				m.did(err)
				return out
			}
			start := time.Now()
			rep, err := d.lake.MaintainIncremental(ctx)
			out = append(out, time.Since(start))
			if err == nil && (rep.Mode != "incremental" || rep.DatasetsReindexed != 1) {
				err = fmt.Errorf("pass was %s over %d datasets, want incremental over 1", rep.Mode, rep.DatasetsReindexed)
			}
			m.did(err)
		}
		return out
	}
	m.set("maintain.incremental_pass_40_ms", ms(medianDur(incremental())),
		"Lake.MaintainIncremental after one new table, lake of %d+ tables, median of %d", base, iters)
	have := base + iters
	for have < grownTables {
		t := takeFresh()
		if err := d.preload(ctx, csvPath(t.Name), []byte(table.ToCSV(t))); err != nil {
			return err
		}
		have++
	}
	if _, err := d.lake.Maintain(ctx); err != nil {
		return err
	}
	m.set("maintain.incremental_pass_340_ms", ms(medianDur(incremental())),
		"Lake.MaintainIncremental after one new table, lake of %d+ tables, median of %d", have, iters)
	return nil
}
