package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"golake/internal/core"
	"golake/internal/query"
	"golake/internal/storage/polystore"
)

// statementOf recovers the SQL text of a query op.
func statementOf(o op) string {
	var body struct {
		SQL string `json:"sql"`
	}
	if err := json.Unmarshal(o.steps[0].body, &body); err != nil {
		panic(err) // queryOp rendered it
	}
	return body.SQL
}

// replayLevels are the entry points one serve_scan op is replayed at,
// shallowest first. Each level's span names the one before it as parent.
const (
	levelTCP      = "tcp"
	levelHandler  = "core.ServeHTTP"
	levelLake     = "core.Lake.Query"
	levelEngine   = "query.Engine.Query"
	levelRelStore = "polystore.ScanWhere"
)

// replayed is the spans of one op, by level.
type replayed struct {
	class string
	rows  int
	dur   map[string]time.Duration
}

// layersServe prices the read path on serve_scan's fixture: a short
// untraced two-client phase for the per-class client-side medians, then
// a single-client replay of a fixed sample of each statement class at
// successively deeper entry points.
func layersServe(ctx context.Context, e *env, m *layerMetrics, rec *recorder, perClass int) error {
	short := *e
	short.seconds = e.seconds / 4
	w, _ := workloadByName("serve_scan")
	f, cs, _, warmed, err := setUp(ctx, w, &short, nil, 1)
	if err != nil {
		return err
	}
	defer f.remove()
	defer f.stop()
	defer closeClients(cs)
	for _, s := range warmed {
		m.did(s.err)
	}
	d := f.deployments[0]

	// Client-side per-class medians, untraced, two clients.
	res := runPhase(ctx, cs, f.scripts)
	rep := newRunReport(w.name)
	for _, s := range res.samples {
		m.did(s.err)
	}
	rep.summarize(&res, nil)
	for _, class := range []string{"scan", "topk", "short", "mixed"} {
		m.set("core.q_"+class+"_p50_ms", rep.classP50[class], "%d ops, 2 clients, untraced", rep.classCount[class])
	}
	m.set("core.first_row_p50_ms", rep.firstRowP50, "columns header to first row line, ops that streamed rows")

	metricsAfter, _, err := scrape(ctx, cs[0])
	m.did(err)
	m.set("admission.queue_wait_s", metricsAfter["golake_admission_queue_wait_seconds_sum"],
		"histogram sum at /v1/metrics after the phase; a correct run never queues")
	scrapes, err := timeEach(20, func(int) error { _, _, err := scrape(ctx, cs[0]); return err })
	m.did(err)
	m.set("obs.scrape_ms", ms(medianDur(scrapes)), "GET /v1/metrics, median of %d", len(scrapes))

	// The replay sample: perClass ops of each class, the scans cycling
	// through the rotation's thresholds.
	data := newServeData(e)
	rotation := data.rotation(e)
	byClass := map[string][]op{}
	for _, o := range rotation {
		byClass[o.class] = append(byClass[o.class], o)
	}
	// Parse and plan, per statement of the rotation.
	var parse, plan []float64
	for _, o := range rotation {
		sql := statementOf(o)
		const reps = 200
		ds, err := timeEach(reps, func(int) error { _, err := query.Parse(sql); return err })
		m.did(err)
		parse = append(parse, us(medianDur(ds)))
		ds, err = timeEach(reps, func(int) error {
			st, err := d.lake.Engine.Query(ctx, query.Request{SQL: sql, Explain: true})
			if err == nil {
				err = st.Close()
			}
			return err
		})
		m.did(err)
		plan = append(plan, us(medianDur(ds)))
	}
	m.set("query.parse_us", median(parse), "query.Parse, median over the rotation's %d statements", len(parse))
	m.set("query.plan_us", median(plan), "Engine.Query with Explain, median over the rotation's %d statements", len(plan))

	handler := d.lake.HTTPHandler()
	single := cs[0]
	user := single.user
	var all []replayed
	var examined, rowsOut int64
	var scanAllocs, scanRows uint64
	opID := 0
	for _, class := range []string{"scan", "topk", "short", "mixed"} {
		for i := 0; i < perClass; i++ {
			o := byClass[class][i%len(byClass[class])]
			sql := statementOf(o)
			want := o.steps[0].ndjson.rows
			r := replayed{class: class, rows: want, dur: map[string]time.Duration{}}
			opID++

			// TCP: the whole round trip, answer checked.
			r.dur[levelTCP], err = rec.timed(opID, levelTCP, "", func() (int, int64, error) {
				s := single.do(ctx, &o, time.Now())
				return want, 0, s.err
			})
			m.did(err)

			// The HTTP handler in-process, bytes discarded.
			r.dur[levelHandler], err = rec.timed(opID, levelHandler, levelTCP, func() (int, int64, error) {
				req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(o.steps[0].body))
				req.Header.Set("X-Lake-User", user)
				req.Header.Set("Accept", ndjsonAccept)
				w := newDiscardWriter()
				handler.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					return 0, w.bytes, fmt.Errorf("in-process ServeHTTP: status %d", w.status)
				}
				return want, w.bytes, nil
			})
			m.did(err)

			// Lake.Query drained: auth, admission, provenance, metrics.
			r.dur[levelLake], err = rec.timed(opID, levelLake, levelHandler, func() (int, int64, error) {
				st, err := d.lake.Query(ctx, user, query.Request{SQL: sql})
				if err != nil {
					return 0, 0, err
				}
				n, err := drain(ctx, st)
				return n, 0, rowCountErr(levelLake, n, want, err)
			})
			m.did(err)

			// Engine.Query drained: parse, plan, scan, filter, sort.
			var stats query.ExecStats
			engineDrain := func() (int, int64, error) {
				st, err := d.lake.Engine.Query(ctx, query.Request{SQL: sql, User: user})
				if err != nil {
					return 0, 0, err
				}
				n, err := drain(ctx, st)
				stats = st.Stats()
				return n, 0, rowCountErr(levelEngine, n, want, err)
			}
			if class == "scan" {
				scanAllocs += mallocsDuring(func() {
					r.dur[levelEngine], err = rec.timed(opID, levelEngine, levelLake, engineDrain)
				})
				scanRows += uint64(want)
			} else {
				r.dur[levelEngine], err = rec.timed(opID, levelEngine, levelLake, engineDrain)
			}
			m.did(err)
			for _, src := range stats.Sources {
				examined += src.Rows
			}
			rowsOut += stats.RowsOut

			// The store scan alone, predicate pushed, for the scan class.
			if class == "scan" {
				q, perr := query.Parse(sql)
				m.did(perr)
				if perr == nil {
					r.dur[levelRelStore], err = rec.timed(opID, levelRelStore, levelEngine, func() (int, int64, error) {
						n, err := scanStore(d.lake.Poly.Rel, data.a.name, q)
						return n, 0, rowCountErr(levelRelStore, n, want, err)
					})
					m.did(err)
				}
			}
			all = append(all, r)
		}
	}

	pick := func(class string, f func(r replayed) (float64, bool)) []float64 {
		var out []float64
		for _, r := range all {
			if r.class != class {
				continue
			}
			if v, ok := f(r); ok {
				out = append(out, v)
			}
		}
		return out
	}
	rate := func(level string) func(r replayed) (float64, bool) {
		return func(r replayed) (float64, bool) {
			d := r.dur[level]
			return float64(r.rows) / d.Seconds(), d > 0
		}
	}
	selfRate := func(outer, inner string) func(r replayed) (float64, bool) {
		return func(r replayed) (float64, bool) {
			d := r.dur[outer] - r.dur[inner]
			return float64(r.rows) / d.Seconds(), d > 0
		}
	}
	self := func(outer, inner string, unit func(time.Duration) float64) func(r replayed) (float64, bool) {
		return func(r replayed) (float64, bool) { return unit(r.dur[outer] - r.dur[inner]), true }
	}
	n := perClass
	m.set("query.scan_rows_per_s", median(pick("scan", rate(levelEngine))), "Engine.Query drained, %d scan ops", n)
	m.set("query.topk_ms", median(pick("topk", func(r replayed) (float64, bool) { return ms(r.dur[levelEngine]), true })), "Engine.Query drained, %d top-K ops", n)
	m.set("query.mixed_rows_per_s", median(pick("mixed", rate(levelEngine))), "Engine.Query drained, %d mixed ops", n)
	if rowsOut > 0 {
		m.set("query.rows_examined_per_row_out", float64(examined)/float64(rowsOut), "%d rows pulled from sources / %d rows out, all replayed ops", examined, rowsOut)
	}
	if scanRows > 0 {
		m.set("query.allocs_per_row", float64(scanAllocs)/float64(scanRows), "%d mallocs / %d rows out, scan ops at Engine.Query", scanAllocs, scanRows)
	}
	m.set("polystore.scan_rows_per_s", median(pick("scan", rate(levelRelStore))), "RelStore.ScanWhere + NextBatch drain, pushed predicate, %d ops", n)
	m.set("core.lake_query_overhead_us", median(pick("short", self(levelLake, levelEngine, us))), "Lake.Query minus Engine.Query on %d short ops", n)
	m.set("core.ndjson_rows_per_s", median(pick("scan", selfRate(levelHandler, levelLake))), "rows / (ServeHTTP minus Lake.Query), %d scan ops", n)
	m.set("core.http_tax_ms", median(pick("scan", self(levelTCP, levelHandler, ms))), "TCP round trip minus in-process ServeHTTP, %d scan ops", n)
	return nil
}

func rowCountErr(level string, got, want int, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", level, err)
	}
	if got != want {
		return fmt.Errorf("%s: %d rows, want %d", level, got, want)
	}
	return nil
}

// scanStore drains RelStore.ScanWhere with the statement's predicates
// and projection pushed, batch-wise like the engine's relational leaf.
func scanStore(rel *polystore.RelStore, name string, q *query.Query) (int, error) {
	preds := make([]polystore.CellPredicate, len(q.Where))
	for i, p := range q.Where {
		preds[i] = polystore.CellPredicate{Column: p.Column, Match: p.Matches}
	}
	cur, err := rel.ScanWhere(name, preds, q.Columns)
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	for {
		_, got := cur.NextBatch(query.DefaultBatchRows)
		if got == 0 {
			return n, nil
		}
		n += got
	}
}

// layersAdmissionObs prices the admission controller and the metrics
// fold on the short statement: three in-memory lakes that differ in one
// option, the statement run on each in turn.
func layersAdmissionObs(ctx context.Context, e *env, m *layerMetrics) error {
	data := newServeData(e)
	small := data.b
	if small.rows > 3000 {
		small.rows = 3000
	}
	sql := fmt.Sprintf("SELECT id FROM rel:%s WHERE site = 's7' LIMIT 10", small.name)
	type variant struct {
		name string
		opts []core.Option
		lake *core.Lake
		d    []time.Duration
	}
	adm := core.WithAdmission(admissionConfig())
	variants := []*variant{
		{name: "base", opts: nil},
		{name: "admission", opts: []core.Option{adm}},
		{name: "nometrics", opts: []core.Option{core.WithMetrics(false)}},
	}
	for _, v := range variants {
		dir, err := os.MkdirTemp(e.workdir, "twin-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		v.lake, err = core.Open(dir, v.opts...)
		if err != nil {
			return err
		}
		defer v.lake.Close()
		v.lake.AddUser(users[0].name, users[0].role)
		if _, err := v.lake.Ingest(ctx, small.path(), small.csv(), "preload", users[0].name); err != nil {
			return err
		}
	}
	const rounds, perRound = 40, 50
	for r := 0; r < rounds; r++ {
		for _, v := range variants {
			ds, err := timeEach(perRound, func(int) error {
				st, err := v.lake.Query(ctx, users[0].name, query.Request{SQL: sql})
				if err != nil {
					return err
				}
				_, err = drain(ctx, st)
				return err
			})
			m.did(err)
			v.d = append(v.d, ds...)
		}
	}
	base := us(medianDur(variants[0].d))
	m.set("admission.overhead_us", us(medianDur(variants[1].d))-base,
		"short statement via Lake.Query, admission on minus off; base %s us, %d calls each", strconv.FormatFloat(base, 'f', 1, 64), rounds*perRound)
	m.set("obs.metrics_overhead_us", base-us(medianDur(variants[2].d)),
		"short statement via Lake.Query, metrics on minus off; base %s us, %d calls each", strconv.FormatFloat(base, 'f', 1, 64), rounds*perRound)
	return nil
}
