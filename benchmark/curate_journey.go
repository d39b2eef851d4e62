package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"golake/internal/table"
	corpusgen "golake/internal/workload"
)

const relatedK = 5

// corpusSpec is the generated web-table corpus both the maintained lake
// and the journeys' fresh tables come from: tables of one join group
// share a key universe, a category vocabulary and a measure
// distribution, so same-group tables are each other's ground-truth
// partners.
func corpusSpec(e *env, tables int, stream int64) corpusgen.CorpusSpec {
	return corpusgen.CorpusSpec{
		NumTables: tables, JoinGroups: e.sz.joinGroups, RowsPerTable: e.sz.corpusRows,
		ExtraCols: 2, KeyVocab: 4 * e.sz.corpusRows, KeySample: e.sz.corpusRows,
		NoiseRate: 0.02, Seed: e.seed*1_000_003 + stream,
	}
}

// groupOf reads the join group out of a generated table name
// ("t003_g03", "j0017_g01"), or -1.
func groupOf(name string) int {
	i := strings.LastIndex(name, "_g")
	if i < 0 {
		return -1
	}
	g, err := strconv.Atoi(name[i+2:])
	if err != nil {
		return -1
	}
	return g
}

// partnerOf is the ground truth of discovery for one table: any other
// table of its join group.
func partnerOf(name string) func(string) bool {
	g := groupOf(name)
	return func(other string) bool { return other != name && groupOf(other) == g }
}

func csvPath(name string) string { return "raw/" + name + ".csv" }

// selectWhere is the expectation of "SELECT * FROM tables WHERE col =
// 'val'", computed from the generated tables themselves.
func selectWhere(col, val string, cols []string, tables ...*table.Table) expectation {
	e := expectation{columns: cols}
	var buf []byte
	for _, t := range tables {
		c, err := t.Column(col)
		if err != nil {
			continue
		}
		for i, cell := range c.Cells {
			if cell != val {
				continue
			}
			row := t.Row(i)
			if len(cols) < len(row) {
				picked := make([]string, len(cols))
				for j, name := range cols {
					pc, _ := t.Column(name)
					picked[j] = pc.Cells[i]
				}
				row = picked
			}
			buf = appendRowLine(buf[:0], row...)
			e.hash += lineHash(buf)
			e.rows++
		}
	}
	return e
}

// journeyOp is the curator's probe: ingest a fresh table of a known join
// group, run a maintenance pass, find the table's partners, read it
// back. Its latency is how long new data takes to become discoverable.
func journeyOp(t *table.Table, keyCol string) (op, int) {
	csv := table.ToCSV(t)
	body, err := json.Marshal(ingestBody{Path: csvPath(t.Name), Source: "bench", Content: csv})
	if err != nil {
		panic(err)
	}
	key, _ := t.Column(keyCol)
	val := key.Cells[0]
	point := queryRequest(fmt.Sprintf("SELECT * FROM rel:%s WHERE %s = '%s'", t.Name, keyCol, val),
		selectWhere(keyCol, val, t.ColumnNames(), t))
	partner := partnerOf(t.Name)
	return op{class: "journey", tag: csvPath(t.Name), steps: []request{
		{method: http.MethodPost, path: "/v1/datasets", body: body, status: http.StatusCreated},
		{method: http.MethodPost, path: "/v1/maintenance", status: http.StatusOK, check: checkIncrementalPass},
		{method: http.MethodGet, path: fmt.Sprintf("/v1/related?table=%s&k=%d", t.Name, relatedK), status: http.StatusOK,
			check: func(b []byte) error { return checkRelated(b, relatedK, partner) }},
		point,
	}}, len(csv)
}

func relatedOp(name string) op {
	partner := partnerOf(name)
	return op{class: "related", steps: []request{{
		method: http.MethodGet, path: fmt.Sprintf("/v1/related?table=%s&k=%d", name, relatedK), status: http.StatusOK,
		check: func(b []byte) error { return checkRelated(b, relatedK, partner) },
	}}}
}

func exploreOp(mode, name, column string) op {
	body := map[string]any{"mode": mode, "table": name, "k": relatedK}
	if column != "" {
		body["column"] = column
	}
	if mode == "task" {
		body["task"] = "augment"
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	partner := partnerOf(name)
	return op{class: "explore_" + strings.ReplaceAll(mode, "-", "_"), steps: []request{{
		method: http.MethodPost, path: "/v1/explore", body: b, status: http.StatusOK,
		check: func(b []byte) error { return checkRelated(b, relatedK, partner) },
	}}}
}

// pairQuery is the analyst's small two-table read: one category of two
// same-group tables.
func pairQuery(corpus *corpusgen.Corpus, a, b *table.Table) (string, expectation) {
	g := corpus.GroupOf[a.Name]
	key, cat := fmt.Sprintf("g%02d_key", g), fmt.Sprintf("g%02d_cat", g)
	val := fmt.Sprintf("g%02d_cat_05", g)
	sql := fmt.Sprintf("SELECT %s, %s FROM rel:%s, rel:%s WHERE %s = '%s'", key, cat, a.Name, b.Name, cat, val)
	return sql, selectWhere(cat, val, []string{key, cat}, a, b)
}

// analystRotation is client B's loop beside the curator: discovery reads
// in every mode and small relational reads, all on the maintained
// corpus.
func analystRotation(e *env, corpus *corpusgen.Corpus) []op {
	rng := e.rng(32)
	pick := func() *table.Table { return corpus.Tables[rng.Intn(len(corpus.Tables))] }
	samePair := func() (a, b *table.Table) {
		a = pick()
		for _, t := range corpus.Tables {
			if t != a && corpus.GroupOf[t.Name] == corpus.GroupOf[a.Name] {
				return a, t
			}
		}
		return a, a
	}
	pairOp := func() op {
		a, b := samePair()
		sql, exp := pairQuery(corpus, a, b)
		return queryOp("pair_query", sql, exp)
	}
	jc := pick()
	return []op{
		relatedOp(pick().Name),
		exploreOp("join-column", jc.Name, corpus.KeyColumn[jc.Name]),
		pairOp(),
		relatedOp(pick().Name),
		exploreOp("populate", pick().Name, ""),
		relatedOp(pick().Name),
		exploreOp("task", pick().Name, ""),
		pairOp(),
	}
}

// curateLake opens a lake, preloads the corpus and maintains it fully.
func curateLake(ctx context.Context, e *env, f *fixture, corpus *corpusgen.Corpus) (*deployment, error) {
	d, err := f.newLake(e, "curate")
	if err != nil {
		return nil, err
	}
	for _, t := range corpus.Tables {
		if err := d.preload(ctx, csvPath(t.Name), []byte(table.ToCSV(t))); err != nil {
			return nil, err
		}
	}
	if _, err := d.lake.Maintain(ctx); err != nil {
		return nil, fmt.Errorf("maintain preloaded corpus: %w", err)
	}
	return d, nil
}

// freshTables generates n tables no lake has seen, named j0000_gNN….
func freshTables(e *env, n int, stream int64) ([]*table.Table, *corpusgen.Corpus) {
	c := corpusgen.GenerateCorpus(corpusSpec(e, n, stream))
	for i, t := range c.Tables {
		g := c.GroupOf[t.Name]
		name := fmt.Sprintf("j%04d_g%02d", i, g)
		c.KeyColumn[name] = c.KeyColumn[t.Name]
		t.Name = name
	}
	return c.Tables, c
}

func setupCurateJourney(ctx context.Context, e *env) (*fixture, error) {
	f := &fixture{}
	corpus := corpusgen.GenerateCorpus(corpusSpec(e, e.sz.corpusTables, 31))
	d, err := curateLake(ctx, e, f, corpus)
	if err != nil {
		return f, err
	}
	f.base = f.serve(d).URL
	const warmJourneys = 1
	n := e.count(e.sz.journeys)
	fresh, freshCorpus := freshTables(e, warmJourneys+n, 33)
	sizes := map[string]int{}
	journeys := make([]op, len(fresh))
	for i, t := range fresh {
		journeys[i], sizes[csvPath(t.Name)] = journeyOp(t, freshCorpus.KeyColumn[t.Name])
	}
	f.warmup = []script{{ops: journeys[:warmJourneys]}}
	f.scripts = []script{{ops: journeys[warmJourneys:]}}
	if e.clients > 1 {
		rotation := analystRotation(e, corpus)
		f.warmup = append(f.warmup, script{ops: rotation})
		f.scripts = append(f.scripts, script{ops: rotation, loop: true})
	}
	f.probe = func(class string) bool { return class == "journey" }
	base, have := d.userBytes, len(corpus.Tables)
	for _, o := range journeys[:warmJourneys] {
		base += int64(sizes[o.tag])
		have++
	}
	pairSQL, pairExp := pairQuery(corpus, corpus.Tables[0], corpus.Tables[e.sz.joinGroups])
	f.reopen = func(res *phaseResult) (string, int64, reopenCheck) {
		bytes, n := base, have
		for _, s := range res.samples {
			if s.class == "journey" && s.err == nil {
				bytes += int64(sizes[s.tag])
				n++
			}
		}
		return d.dir, bytes, reopenCheck{datasets: n, sql: pairSQL, rows: pairExp.rows}
	}
	return f, nil
}
