package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The manifest must satisfy the driver's contract and name exactly what
// the code runs and emits.
func TestManifestMatchesContractAndCode(t *testing.T) {
	m, errs := loadManifest("")
	for _, err := range errs {
		t.Error(err)
	}
	if m == nil {
		t.FailNow()
	}
	for _, err := range m.againstCode() {
		t.Error(err)
	}
	if m.Paths[0] != "benchmark" || len(m.Paths) != 1 {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
}

// Every workload and the traced run, at 1/50 scale: every gate must
// pass on HEAD and the emitted metric names must equal the manifest's,
// in both directions.
func TestSmokeRunEmitsTheManifest(t *testing.T) {
	m, errs := loadManifest("")
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	for _, err := range smokeAgainst(context.Background(), m) {
		t.Error(err)
	}
}

func TestParseManifestRefuses(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	good := string(raw)
	cases := map[string]string{
		"unknown key":       strings.Replace(good, `"run_seconds"`, `"layer": "x", "run_seconds"`, 1),
		"missing setup_s":   strings.Replace(good, `"setup_s"`, `"setup_seconds"`, 1),
		"bad name":          strings.Replace(good, `"serve_scan"`, `"serve scan"`, 1),
		"bound above 0.25":  strings.Replace(good, `"bound": 0.25`, `"bound": 0.5`, 1),
		"duplicate name":    strings.Replace(good, `"federate"`, `"serve_scan"`, 1),
		"path leaving repo": strings.Replace(good, `"benchmark"`, `"../benchmark"`, 1),
		"run_seconds 0":     strings.Replace(good, `"run_seconds": 20`, `"run_seconds": 0`, 1),
	}
	if _, errs := parseManifest(raw); len(errs) > 0 {
		t.Fatalf("the committed manifest is refused: %v", errs)
	}
	for name, doc := range cases {
		if doc == good {
			t.Errorf("%s: the case did not change the manifest", name)
			continue
		}
		if _, errs := parseManifest([]byte(doc)); len(errs) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

// gateServer answers every path with a canned body, so the client-side
// gates can be shown to fire.
func gateServer(t *testing.T, bodies map[string]string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := bodies[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		status := http.StatusOK
		if r.URL.Path == "/v1/datasets" {
			status = http.StatusCreated
		}
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// Each correctness gate must fire on the answer it exists to catch, and
// the failed op must be counted.
func TestGatesFireAndAreCounted(t *testing.T) {
	spec := relSpec{name: "g", rows: 50, mul: 7, off: 3}
	cols := []string{"id", "v"}
	const k = 150
	exp := expectScan(cols, k, []relSpec{spec}, nil)
	if exp.rows == 0 || exp.rows == spec.rows {
		t.Fatalf("test table is degenerate: %d of %d rows match", exp.rows, spec.rows)
	}
	var rows []string
	for i := 0; i < spec.rows; i++ {
		if spec.v(i) > k {
			rows = append(rows, string(appendRowLine(nil, spec.id(i), strconv.Itoa(spec.v(i)))))
		}
	}
	header := `{"columns":["id","v"]}`
	stats := `{"stats":{"rows_out":` + strconv.Itoa(len(rows)) + `}}`
	join := func(lines ...string) string { return strings.Join(lines, "\n") + "\n" }
	wrongCell := append([]string(nil), rows...)
	wrongCell[0] = string(appendRowLine(nil, spec.id(0), "999"))

	streams := map[string]struct {
		body string
		want error // nil: any error
	}{
		"good":           {join(append(append([]string{header}, rows...), stats)...), nil},
		"truncated":      {join(append([]string{header}, rows[:len(rows)/2]...)...), errTruncated},
		"no trailer":     {join(append([]string{header}, rows...)...), errTruncated},
		"error trailer":  {join(append(append([]string{header}, rows[:2]...), `{"error":{"code":"internal","message":"boom"}}`)...), errTrailer},
		"row missing":    {join(append(append([]string{header}, rows[1:]...), stats)...), nil},
		"row duplicated": {join(append(append([]string{header, rows[0]}, rows...), stats)...), nil},
		"wrong cell":     {join(append(append([]string{header}, wrongCell...), stats)...), nil},
		"wrong columns":  {join(append(append([]string{`{"columns":["id","w"]}`}, rows...), stats)...), nil},
	}
	for name, c := range streams {
		_, err := checkNDJSON(bufio.NewReader(strings.NewReader(c.body)), &exp)
		switch {
		case name == "good" && err != nil:
			t.Errorf("good stream refused: %v", err)
		case name != "good" && err == nil:
			t.Errorf("%s: gate did not fire", name)
		case c.want != nil && !errors.Is(err, c.want):
			t.Errorf("%s: got %v, want %v", name, err, c.want)
		}
	}

	// An ordered answer in the wrong order, and a LIMIT answer holding a
	// row the statement does not select.
	top := topRows(cols, k, 5, spec)
	ordered := expectSequence(cols, top)
	var lines, reversed []string
	for _, r := range top {
		lines = append(lines, string(appendRowLine(nil, r...)))
		reversed = append([]string{lines[len(lines)-1]}, reversed...)
	}
	if _, err := checkNDJSON(bufio.NewReader(strings.NewReader(join(append(append([]string{header}, lines...), stats)...))), &ordered); err != nil {
		t.Errorf("ordered stream refused: %v", err)
	}
	if _, err := checkNDJSON(bufio.NewReader(strings.NewReader(join(append(append([]string{header}, reversed...), stats)...))), &ordered); err == nil {
		t.Error("reversed ORDER BY answer: gate did not fire")
	}
	limited := expectLimited(cols, exp.rows, 2, func(row []string) bool {
		i := spec.rowIndex(row[0])
		return i >= 0 && spec.v(i) > k
	})
	outsider := string(appendRowLine(nil, spec.id(0), strconv.Itoa(spec.v(0)))) // v(0) = 3, not > k
	if _, err := checkNDJSON(bufio.NewReader(strings.NewReader(join(header, rows[0], outsider, stats))), &limited); err == nil {
		t.Error("LIMIT answer with a non-matching row: gate did not fire")
	}
	if _, err := checkNDJSON(bufio.NewReader(strings.NewReader(join(header, rows[0], rows[0], stats))), &limited); err == nil {
		t.Error("LIMIT answer with a repeated row: gate did not fire")
	}

	// Through a client, end to end: four bad answers and a journey whose
	// /v1/related names no ground-truth partner are five failed ops.
	srv := gateServer(t, map[string]string{
		"/truncated":      streams["truncated"].body,
		"/trailer":        streams["error trailer"].body,
		"/count":          streams["row missing"].body,
		"/hash":           streams["wrong cell"].body,
		"/good":           streams["good"].body,
		"/v1/datasets":    `{"path":"raw/j0000_g01.csv"}`,
		"/v1/maintenance": `{"mode":"incremental","datasets":1,"tables":41}`,
		"/v1/related":     `[{"Table":"t002_g02","Score":0.4,"Via":"populate"},{"Table":"t003_g03","Score":0.3,"Via":"populate"}]`,
	})
	stream := func(path string) op {
		return op{class: "scan", steps: []request{{method: http.MethodPost, path: path, body: []byte(`{}`), ndjson: &exp}}}
	}
	partner := partnerOf("j0000_g01")
	journey := op{class: "journey", steps: []request{
		{method: http.MethodPost, path: "/v1/datasets", body: []byte(`{}`), status: http.StatusCreated},
		{method: http.MethodPost, path: "/v1/maintenance", status: http.StatusOK, check: checkIncrementalPass},
		{method: http.MethodGet, path: "/v1/related?table=j0000_g01&k=5", status: http.StatusOK,
			check: func(b []byte) error { return checkRelated(b, relatedK, partner) }},
		stream("/good").steps[0],
	}}
	c := newClient(srv.URL, "ana")
	defer c.close()
	res := runPhase(context.Background(), []*client{c}, []script{{ops: []op{
		stream("/good"), stream("/truncated"), stream("/trailer"), stream("/count"), stream("/hash"), journey,
	}}})
	rep := &runReport{}
	rep.countSamples(res.samples)
	if rep.Attempted != 6 || rep.Failed != 5 {
		for _, err := range rep.errs {
			t.Log(err)
		}
		t.Errorf("attempted %d failed %d, want 6 and 5", rep.Attempted, rep.Failed)
	}

	// The maintenance gate on its own: a full pass, or one over two
	// datasets, is not what a journey may see.
	for _, body := range []string{`{"mode":"full","datasets":41}`, `{"mode":"incremental","datasets":2}`} {
		if checkIncrementalPass([]byte(body)) == nil {
			t.Errorf("maintenance answer %s: gate did not fire", body)
		}
	}
}

// The benchmark must outlive the code later changes are set to delete:
// it may not import internal/bench or call anything deprecated.
func TestNoCallsIntoCodeSlatedForDeletion(t *testing.T) {
	banned := map[string]bool{
		"DisableBatch": true, "StreamSQL": true, "StreamSQLFanIn": true, "Stream": true, "StreamFanIn": true,
		"QueryStream": true, "QueryStreamFanIn": true, "SwampCheck": true, "OpenWithClock": true,
	}
	legacyRoutes := []string{"/datasets", "/metadata", "/related", "/query", "/lineage", "/audit", "/swamp"}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				if strings.Contains(imp.Path.Value, "internal/bench") || strings.Contains(imp.Path.Value, "cmd/benchreport") {
					t.Errorf("%s imports %s", name, imp.Path.Value)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if banned[x.Sel.Name] {
						t.Errorf("%s: uses %s, which is deprecated or slated for deletion", fset.Position(x.Pos()), x.Sel.Name)
					}
				case *ast.BasicLit:
					if x.Kind != token.STRING {
						return true
					}
					lit, err := strconv.Unquote(x.Value)
					if err != nil {
						return true
					}
					for _, r := range legacyRoutes {
						if lit == r || strings.HasPrefix(lit, r+"?") {
							t.Errorf("%s: names the unversioned route %s", fset.Position(x.Pos()), lit)
						}
					}
					if strings.Contains(lit, "offset=") {
						t.Errorf("%s: pages by offset: %s", fset.Position(x.Pos()), lit)
					}
				}
				return true
			})
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which is how the acceptance rule states spread.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// op_p95_ms is the mean of the phase's five slices' own p95: a slow spell
// that covers one slice moves it by that slice's share, where the pooled
// p95 would be set by the spell alone.
func TestSlicedQuantileWeighsASlowSpellByItsLength(t *testing.T) {
	lat := make([]float64, 500)
	for i := range lat {
		lat[i] = 10 + float64(i%10) // 10..19 in every slice
		if i >= 400 {
			lat[i] *= 2 // the machine ran at half speed for the last fifth
		}
	}
	calm := quantile(sortedCopy(lat[:100]), 0.95)
	got := slicedQuantile(lat, 0.95, tailSlices)
	if want := calm * 6 / 5; math.Abs(got-want) > 1e-9 {
		t.Errorf("sliced p95 = %v, want %v: four calm slices and one at twice the latency", got, want)
	}
	if pooled := quantile(sortedCopy(lat), 0.95); pooled < 1.7*calm {
		t.Errorf("pooled p95 = %v: the case no longer shows what slicing is for", pooled)
	}
	// Too few samples to slice: the plain quantile.
	few := []float64{3, 1, 2}
	if got := slicedQuantile(few, 0.5, tailSlices); got != 2 {
		t.Errorf("slicedQuantile of three samples = %v, want their median", got)
	}
}

// A timing is divided by the slowness of its own interval: a section
// taken while the machine ran at half speed reads as it would have at
// full speed, and a section on the other side of the step is untouched.
func TestSlownessIsTheSectionsOwn(t *testing.T) {
	base := time.Now()
	r := &reference{}
	at := func(i int) time.Time { return base.Add(time.Duration(i) * refEvery) }
	for i := 0; i < 100; i++ {
		k := time.Duration(1)
		if i >= 50 {
			k = 2 // the machine halves its speed halfway through the run
		}
		r.samples = append(r.samples, refSample{at: at(i), alloc: k * refAllocNominal, mix: k * refMixNominal})
	}
	// One sample a collection landed on moves nothing.
	r.samples[60].alloc *= 40
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if got := r.slowness(at(0), at(49)); !near(got, 1) {
		t.Errorf("slowness before the step = %v, want 1", got)
	}
	if got := r.slowness(at(50), at(99)); !near(got, 2) {
		t.Errorf("slowness after the step = %v, want 2", got)
	}
	rep := newRunReport("w")
	rep.setSections("setup_s", r, []timing{{at(0), 49 * refEvery}, {at(50), 49 * refEvery}, {at(50), 98 * refEvery}})
	if got, want := rep.Metrics["setup_s"].Value, (49 * refEvery).Seconds(); !near(got, want) {
		t.Errorf("three set-ups of equal work, two of them at half speed, read %v s at reference speed, want %v", got, want)
	}
	// An interval with fewer than three samples borrows the run's.
	if got := r.slowness(at(20), at(21)); !near(got, 1.5) {
		t.Errorf("slowness of a two-sample interval = %v, want the run's 1.5", got)
	}
	if got := (&reference{}).slowness(at(0), at(99)); got != 1 {
		t.Errorf("slowness without samples = %v, want 1", got)
	}
}

// Processor time the host took from the run slows it too: an interval in
// which a third of the time wanted was stolen reads half again as slow.
func TestStolenTimeCountsAsSlowness(t *testing.T) {
	got := parseCPUTicks("cpu  3547095 0 269066 2095045 68138 0 52801 73584 0 0")
	if want := (cpuTicks{busy: 3547095 + 269066 + 52801, stolen: 73584}); got != want {
		t.Errorf("parseCPUTicks = %+v, want %+v", got, want)
	}
	if got := parseCPUTicks("intr 1 2 3"); got != (cpuTicks{}) {
		t.Errorf("parseCPUTicks of another line = %+v, want zero", got)
	}
	base := time.Now()
	r := &reference{}
	var ticks cpuTicks
	for i := 0; i < 100; i++ {
		ticks.busy += 4
		if i >= 50 {
			ticks.stolen += 2 // from here on the host takes a tick for every two we run
		}
		r.samples = append(r.samples, refSample{at: base.Add(time.Duration(i) * refEvery),
			alloc: refAllocNominal, mix: refMixNominal, ticks: ticks})
	}
	at := func(i int) time.Time { return base.Add(time.Duration(i) * refEvery) }
	if got := r.slowness(at(0), at(49)); math.Abs(got-1) > 1e-9 {
		t.Errorf("slowness with nothing stolen = %v, want 1", got)
	}
	if got := r.slowness(at(49), at(99)); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("slowness with a tick stolen per two run = %v, want 1.5", got)
	}
	// Too few ticks to believe: the run's share, 100 stolen per 396 run.
	if got, want := r.slowness(at(60), at(64)), 496.0/396; math.Abs(got-want) > 1e-9 {
		t.Errorf("slowness of a five-sample interval = %v, want the run's %v", got, want)
	}
	if got, want := r.stolenShare(), 100.0/496; math.Abs(got-want) > 1e-9 {
		t.Errorf("stolenShare = %v, want %v", got, want)
	}
}

// The reference kernels do fixed work: what they compute does not depend
// on when or how often they ran before.
func TestReferenceKernelsAreFixedWork(t *testing.T) {
	a, b := newRefWork(), newRefWork()
	for i := 0; i < 3; i++ {
		a.allocKernel()
		a.mixKernel()
	}
	for i := 0; i < 3; i++ {
		b.allocKernel()
		b.mixKernel()
	}
	if a.sum != b.sum || !bytes.Equal(a.a, b.a) {
		t.Errorf("two references that did the same work differ: %d vs %d", a.sum, b.sum)
	}
	if len(a.held) != 200 {
		t.Errorf("allocKernel holds %d allocations, want 200", len(a.held))
	}
}

func TestJudge(t *testing.T) {
	steady := func(center float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = center * (1 + 0.002*float64(i-5))
		}
		return out
	}
	noisy := func(center float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = center * (1 + 0.08*float64(i-5))
		}
		return out
	}
	cases := []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"latency up 30%", steady(100), steady(130), true, "worse"},
		{"latency down 30%", steady(100), steady(70), true, "better"},
		{"throughput down 30%", steady(100), steady(70), false, "worse"},
		{"throughput up 30%", steady(100), steady(130), false, "better"},
		{"within the bound", steady(100), steady(100.1), true, "same"},
		{"spread wider than the bound", noisy(100), noisy(130), true, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, 0.10, c.lowerBetter).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// A change whose runs failed more answer checks than the parent's gains
// nothing, however its numbers read.
func TestCompareRefusesMoreFailedOps(t *testing.T) {
	bound := 0.10
	m := &manifest{EndToEnd: []manifestMetric{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: &bound}}}
	runs := func(v float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"serve_scan": {"op_p50_ms": {v, v * 1.001, v * 0.999, v * 1.002, v * 0.998}}}
	}
	parent := &summary{Runs: runs(100), Failed: map[string]int{"serve_scan": 0}}
	faster := &summary{Runs: runs(70), Failed: map[string]int{"serve_scan": 0}}
	fasterButWrong := &summary{Runs: runs(70), Failed: map[string]int{"serve_scan": 3}}

	var out bytes.Buffer
	if bad := compareSummaries(&out, m, parent, faster); bad != 0 || !strings.Contains(out.String(), "better") {
		t.Errorf("clean faster change: %d bad cells, output:\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compareSummaries(&out, m, parent, fasterButWrong); bad != 1 || !strings.Contains(out.String(), "invalid") || strings.Contains(out.String(), "better") {
		t.Errorf("faster change with 3 failed ops: %d bad cells, want 1 marked invalid; output:\n%s", bad, out.String())
	}
}
